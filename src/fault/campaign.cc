#include "src/fault/campaign.h"

#include <cassert>

namespace fbufs {

namespace {

DomainId FindAliveDomain(Machine& m, const std::string& name) {
  for (std::size_t i = 0; i < m.domain_count(); ++i) {
    Domain* d = m.domain(static_cast<DomainId>(i));
    if (d != nullptr && d->alive() && d->name() == name) {
      return d->id();
    }
  }
  return kInvalidDomainId;
}

}  // namespace

const char* FaultKindName(FaultAction::Kind k) {
  switch (k) {
    case FaultAction::Kind::kSetLinkLoss:
      return "set_link_loss";
    case FaultAction::Kind::kLossBurst:
      return "loss_burst";
    case FaultAction::Kind::kAckPathOnlyLoss:
      return "ack_path_only_loss";
    case FaultAction::Kind::kLinkFlap:
      return "link_flap";
    case FaultAction::Kind::kSqueezeSwitchQueue:
      return "squeeze_switch_queue";
    case FaultAction::Kind::kTerminateDomain:
      return "terminate_domain";
  }
  return "unknown";
}

void CampaignRunner::MarkPhase(const std::string& label) {
  // One marker per distinct machine: the SWP host is usually also an
  // audited host, and a duplicate marker would double up in the export.
  std::vector<Machine*> seen;
  for (const AuditedHost& h : audited_) {
    seen.push_back(h.machine);
  }
  auto add_unique = [&seen](Machine* m) {
    if (m == nullptr) {
      return;
    }
    for (Machine* s : seen) {
      if (s == m) {
        return;
      }
    }
    seen.push_back(m);
  };
  add_unique(swp_machine_);
  for (const Conversation& c : conversations_) {
    add_unique(c.machine);
  }
  for (Machine* m : seen) {
    Trace& t = m->trace();
    if (t.enabled(TraceCategory::kPhase)) {
      t.Marker(t.Intern(label));
    }
  }
}

void CampaignRunner::TakeSample(const std::string& label) {
  Sample s;
  s.at = loop_->Now();
  s.label = label;
  if (runner_ != nullptr) {
    for (std::size_t i = 0; i < runner_->flow_count(); ++i) {
      s.delivered += runner_->flow_sink(i).bytes_received();
    }
  }
  if (topo_ != nullptr) {
    for (LinkId l = 0; l < topo_->link_count(); ++l) {
      s.drops += topo_->link(l).drops();
    }
    s.drops += topo_->switch_drops();
  }
  if (swp_sink_ != nullptr) {
    s.delivered += swp_sink_->bytes_received();
  }
  if (data_channel_ != nullptr) {
    s.drops += data_channel_->dropped();
  }
  if (ack_channel_ != nullptr) {
    s.drops += ack_channel_->dropped();
  }
  if (swp_sender_ != nullptr) {
    s.retransmissions += swp_sender_->retransmissions();
  }
  for (const Conversation& c : conversations_) {
    if (c.sink != nullptr) {
      s.delivered += c.sink->bytes_received();
    }
    if (c.sender != nullptr) {
      s.retransmissions += c.sender->retransmissions();
    }
  }
  samples_.push_back(std::move(s));
}

Machine* CampaignRunner::MachineFor(const FaultAction& a) {
  if (a.node != kNoNode && topo_ != nullptr) {
    SimHost* h = topo_->host(a.node);
    return h != nullptr ? &h->machine : nullptr;
  }
  if (swp_machine_ != nullptr) {
    return swp_machine_;
  }
  return conversations_.empty() ? nullptr : conversations_.front().machine;
}

void CampaignRunner::Apply(const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::kSetLinkLoss:
    case FaultAction::Kind::kLossBurst:
    case FaultAction::Kind::kLinkFlap: {
      assert(topo_ != nullptr && "link faults need an attached topology");
      TopoLink& link = topo_->link(a.link);
      const std::uint32_t prev = link.drop_percent();
      const std::uint32_t pct =
          a.kind == FaultAction::Kind::kLinkFlap ? 100 : a.percent;
      link.set_drop_percent(pct);
      if (a.duration > 0) {
        loop_->Schedule(a.at + a.duration, "fault-restore/" + a.label,
                        [this, a, prev] {
                          TakeSample(a.label + "/restored");
                          MarkPhase("fault/" + a.label + "/restored");
                          topo_->link(a.link).set_drop_percent(prev);
                        });
      }
      break;
    }
    case FaultAction::Kind::kAckPathOnlyLoss: {
      assert(ack_channel_ != nullptr && "ack-path loss needs an SWP world");
      const std::uint32_t prev = ack_channel_->drop_percent();
      ack_channel_->set_drop_percent(a.percent);
      if (a.duration > 0) {
        loop_->Schedule(a.at + a.duration, "fault-restore/" + a.label,
                        [this, a, prev] {
                          TakeSample(a.label + "/restored");
                          MarkPhase("fault/" + a.label + "/restored");
                          ack_channel_->set_drop_percent(prev);
                        });
      }
      break;
    }
    case FaultAction::Kind::kSqueezeSwitchQueue: {
      assert(topo_ != nullptr && topo_->is_switch(a.node));
      SwitchNode* sw = topo_->switch_at(a.node);
      const std::size_t prev = sw->port_queue_limit(a.port);
      sw->set_port_queue_limit(a.port, a.queue_pdus);
      if (a.duration > 0) {
        loop_->Schedule(a.at + a.duration, "fault-restore/" + a.label,
                        [this, a, prev] {
                          TakeSample(a.label + "/restored");
                          MarkPhase("fault/" + a.label + "/restored");
                          topo_->switch_at(a.node)->set_port_queue_limit(a.port,
                                                                         prev);
                        });
      }
      break;
    }
    case FaultAction::Kind::kTerminateDomain: {
      Machine* m = MachineFor(a);
      assert(m != nullptr && "terminate needs a host machine");
      const DomainId victim = FindAliveDomain(*m, a.domain);
      assert(victim != kInvalidDomainId && "terminate target not found/alive");
      m->DestroyDomain(victim);
      break;
    }
  }
}

void CampaignRunner::Arm(const FaultSchedule& schedule) {
  TakeSample("start");
  MarkPhase("campaign/start");
  for (const FaultAction& a : schedule.actions) {
    report_.AddScheduledFault(CampaignReport::ScheduledFault{
        a.label, FaultKindName(a.kind), a.at, a.duration, a.percent});
    // The sample precedes the fault within the same event, so the phase
    // ending here reflects the regime before the knob turned.
    loop_->Schedule(a.at, "fault/" + a.label, [this, a] {
      TakeSample(a.label);
      MarkPhase("fault/" + a.label);
      Apply(a);
    });
  }
}

void CampaignRunner::ScheduleAudit(SimTime at, const std::string& label) {
  loop_->Schedule(at, "audit/" + label,
                  [this, label] { RunAudit(label, /*include_swp=*/false); });
}

void CampaignRunner::RunAudit(const std::string& label, bool include_swp) {
  CampaignReport::AuditEntry e;
  e.label = label;
  e.at_ns = loop_->Now();
  bool passed = !audited_.empty() || (include_swp && swp_sender_ != nullptr) ||
                (include_swp && !conversations_.empty());
  for (const AuditedHost& h : audited_) {
    e.hosts.push_back(InvariantAuditor::AuditHost(h.label, *h.machine, *h.fsys));
    passed = passed && e.hosts.back().passed;
  }
  if (include_swp && swp_sender_ != nullptr) {
    e.swp = InvariantAuditor::AuditSwp(*swp_sender_, *swp_receiver_,
                                       *swp_machine_);
    e.has_swp = true;
    passed = passed && e.swp.passed;
  }
  if (include_swp) {
    for (const Conversation& c : conversations_) {
      e.conversations.emplace_back(
          c.label, InvariantAuditor::AuditSwp(*c.sender, *c.receiver, *c.machine));
      passed = passed && e.conversations.back().second.passed;
    }
  }
  e.passed = passed;
  report_.AddAudit(std::move(e));
}

CampaignReport CampaignRunner::Finish() {
  assert(!finished_ && "Finish() is one-shot");
  finished_ = true;
  TakeSample("end");
  MarkPhase("campaign/end");
  RunAudit("final", /*include_swp=*/true);

  for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
    const Sample& a = samples_[i];
    const Sample& b = samples_[i + 1];
    CampaignReport::Phase p;
    p.label = a.label;
    p.start_ns = a.at;
    p.end_ns = b.at;
    p.delivered_bytes = b.delivered - a.delivered;
    p.drops = b.drops - a.drops;
    p.retransmissions = b.retransmissions - a.retransmissions;
    if (b.at > a.at) {
      p.goodput_mbps = static_cast<double>(p.delivered_bytes) * 8.0 * 1000.0 /
                       static_cast<double>(b.at - a.at);
    }
    report_.AddPhase(std::move(p));
  }
  return std::move(report_);
}

}  // namespace fbufs
