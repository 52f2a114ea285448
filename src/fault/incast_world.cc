#include "src/fault/incast_world.h"

namespace fbufs {

namespace {

// Credit transport: sender's budget before the first grant arrives, and the
// ceiling CreditFor may grant per flow. One credit per flow keeps the
// worst-case aggregate in-flight (flows × credit) at or under the bottleneck
// queue — loss-freedom is the whole point of the scheme.
constexpr std::uint32_t kInitialCredits = 1;
constexpr std::uint32_t kMaxCredit = 1;
// AIMD slow-start threshold.
constexpr std::uint32_t kSsthresh = 2;

// RTO above the worst legitimate RTT (ingress serialization plus two
// near-full switch queues ≈ 45 ms at the line rate and default queue depth),
// so a timeout means a drop, not patience running out.
constexpr SimTime kRto = 80 * kMillisecond;
// Reverse-path (ack) latency; acks are tiny and never contend.
constexpr SimTime kAckDelay = 20 * kMicrosecond;
// Producer re-try pace when the window/credits close. Much shorter than the
// RTO: acks arrive at RTT timescales (queueing + kAckDelay), and a producer
// that napped a whole RTO would quantize every transport's goodput to
// window-per-RTO bursts, hiding the congestion dynamics this world exists to
// show. The cap is RTT-scale too, for the same reason.
constexpr SimTime kParkInitial = 250 * kMicrosecond;
constexpr SimTime kParkCap = 4 * kMillisecond;
// Watchdog only: deep in the collapse a fixed-window flow legitimately
// starves for whole seconds (consecutive RTOs while the bottleneck services
// other flows' duplicates). True wedges still surface — the loop quiesces
// and the bench's drain check fails.
constexpr SimTime kStallHorizon = 10000 * kMillisecond;

// OC-3 line rates. The fabric must be the bottleneck for congestion to
// exist: all domains share one host CPU (one clock), which can source
// roughly one PDU per ~0.6 ms of protocol + crossing work, so the line rate
// sits well below that packet rate at the 32 KB PDU the benches use. (At the
// paper's 516 Mbps a 32 KB PDU serializes in 0.5 ms — the CPU, not the wire,
// would saturate first, and no queue would ever build.)
constexpr double kUplinkMbps = 155.0;  // sender NIC wire and ToR uplink line rate
constexpr double kCoreMbps = 155.0;    // core downlink to the receiver: the bottleneck

FlowBackoff ProducerBackoff() {
  FlowBackoff b;
  b.policy.initial = kParkInitial;
  b.policy.multiplier = 2;
  b.policy.cap = kParkCap;
  b.stall_horizon = kStallHorizon;
  return b;
}

// Sender and receiver run the same transport kind — the wire format (16 vs
// 24 byte header) must agree end to end.
std::unique_ptr<Transport> MakeTransport(const IncastWorldConfig& cfg,
                                         Domain* d, ProtocolStack* s,
                                         PathId hdr) {
  switch (cfg.kind) {
    case TransportKind::kFixedWindow:
      return std::make_unique<SwpProtocol>(d, s, hdr, cfg.window);
    case TransportKind::kCredit:
      return std::make_unique<CreditTransport>(d, s, hdr, kInitialCredits);
    case TransportKind::kAimd: {
      AimdPolicy::Config ac;
      ac.initial_cwnd = 1;
      ac.initial_ssthresh = kSsthresh;
      ac.max_cwnd = cfg.window;
      return std::make_unique<AimdTransport>(d, s, hdr, ac);
    }
  }
  return nullptr;
}

}  // namespace

const char* TransportKindName(TransportKind k) {
  switch (k) {
    case TransportKind::kFixedWindow:
      return "swp";
    case TransportKind::kCredit:
      return "credit";
    case TransportKind::kAimd:
      return "aimd";
  }
  return "unknown";
}

IncastWorld::IncastWorld(const IncastWorldConfig& cfg)
    : fsys(&machine),
      rpc(&machine),
      stack(&machine, &fsys, &rpc),
      topo(cfg.seed),
      pressure(&fsys),
      receiver_domain(machine.CreateDomain("receiver")) {
  fsys.AttachRpc(&rpc);
  fsys.AttachEventLoop(&loop);
  pressure.AttachEventLoop(&loop);

  const std::uint32_t flows = cfg.racks * cfg.senders_per_rack;
  stack.set_domain_count(1 + flows);

  // Fabric: one ToR switch per rack (port 0 = the uplink toward the core),
  // one core switch (port 0 = the downlink to the receiver — the incast
  // bottleneck every flow crosses).
  for (std::uint32_t r = 0; r < cfg.racks; ++r) {
    SwitchPortConfig up;
    up.mbps = kUplinkMbps;
    up.queue_pdus = cfg.switch_queue_pdus;
    tor_nodes_.push_back(topo.AddSwitch("tor" + std::to_string(r), {up}));
    topo.switch_at(tor_nodes_.back())->set_ecn_threshold(cfg.ecn_threshold_pdus);
  }
  SwitchPortConfig down;
  down.mbps = kCoreMbps;
  down.queue_pdus = cfg.switch_queue_pdus;
  core_node_ = topo.AddSwitch("core", {down});
  topo.switch_at(core_node_)->set_ecn_threshold(cfg.ecn_threshold_pdus);

  for (std::uint32_t i = 0; i < flows; ++i) {
    auto f = std::make_unique<Flow>();
    const NodeId tor = tor_nodes_[i / cfg.senders_per_rack];
    f->vci = 100 + i;
    Domain* sd = machine.CreateDomain("sender" + std::to_string(i));
    f->sender_domain = sd;
    f->tx_hdr = fsys.paths().Register({sd->id(), receiver_domain->id()});
    f->rx_hdr = fsys.paths().Register({receiver_domain->id(), sd->id()});
    f->data = fsys.paths().Register({sd->id(), receiver_domain->id()});
    f->ledger = std::make_unique<RetransmitLedger>();
    f->sender = MakeTransport(cfg, sd, &stack, f->tx_hdr);
    f->receiver = MakeTransport(cfg, receiver_domain, &stack, f->rx_hdr);
    f->sink = std::make_unique<SinkProtocol>(receiver_domain, &stack);
    f->fwd = std::make_unique<FabricChannel>(this, i, sd);
    f->rev = std::make_unique<AckChannel>(this, i, receiver_domain);
    // The ingress wire has no host node (the sender "NIC" is the link
    // itself); both endpoints record the rack's ToR for the fault scripts.
    f->ingress = topo.AddLink(tor, tor, &machine.costs(),
                              "ingress/" + std::to_string(i), kUplinkMbps);
    f->hops = {Hop{f->ingress, tor}, Hop{kNoLink, core_node_}};
    topo.switch_at(tor)->Route(f->vci, 0);
    topo.switch_at(core_node_)->Route(f->vci, 0);

    f->sender->set_below(f->fwd.get());
    f->receiver->set_below(f->rev.get());
    f->receiver->set_above(f->sink.get());
    f->sender->AttachTimer(&loop, kRto);
    f->sender->AttachLedger(f->ledger.get());
    f->sender->InstallAbortOnTermination();
    pressure.AttachRetransmitLedger(f->ledger.get());
    if (cfg.kind == TransportKind::kCredit) {
      // The grant rides on every ack: the receiver sizes each flow's
      // in-flight budget to the pool's current headroom. This is the
      // backward pressure path — a squeezed pool shrinks grants toward 1.
      const std::size_t idx = i;
      f->receiver->SetCreditSource([this, idx, flows] {
        const std::uint64_t bytes = flows_[idx]->producer->bytes();
        const std::uint64_t pdu_pages = PagesFor(bytes > 0 ? bytes : kPageSize);
        return pressure.CreditFor(pdu_pages, flows, kMaxCredit);
      });
    }
    f->producer = std::make_unique<FlowDriver>(&fsys, &loop, sd, f->data,
                                               f->sender.get(), ProducerBackoff());
    flows_.push_back(std::move(f));
  }
}

Status IncastWorld::FabricChannel::Push(Message m) {
  const Flow& f = world_->flow(flow_);
  // Serialize onto the sender's own wire, then queue through both switch
  // tiers analytically. A drop at any stage eats the frame (counted at the
  // dropping element); the bits upstream of the drop were still spent.
  const Topology::Outcome out = world_->topo.Traverse(
      f.vci, f.hops, m.length(), stack_->machine()->clock().Now());
  if (out.dropped) {
    return Status::kOk;
  }
  // Hold references across the flight; the delivery event drops them.
  Status st = stack_->RetainMessage(m, *domain());
  if (!Ok(st)) {
    return st;
  }
  const SimTime arrival = out.done;
  world_->loop.ScheduleAtLeast(
      arrival, "incast-deliver",
      [this, m, arrival, marked = out.ecn_marked] {
        if (!domain()->alive()) {
          // The sender died mid-flight: §3.3 cleanup already dropped the
          // references this channel held, so the frame simply never lands.
          return;
        }
        stack_->machine()->clock().AdvanceToAtLeast(arrival);
        Flow& fl = world_->flow(flow_);
        if (world_->latency_enabled_) {
          // How late the event loop ran the delivery relative to the frame's
          // fabric arrival: receiver-side dispatch latency.
          const SimTime now = stack_->machine()->clock().Now();
          fl.lat.dispatch.push_back(now >= arrival ? now - arrival : 0);
        }
        if (marked) {
          // Out-of-band ECN: the mark arrives with the frame (fbufs are
          // immutable in flight — the header cannot be rewritten).
          fl.receiver->MarkCongestionExperienced();
        }
        // The actual crossing happens here, through the stack's proxy edge:
        // SendUpTo transfers the fbuf references into the receiver domain
        // (making it a holder — without that, receiver-side reads fault to
        // §3.2.4 absent-leaf zero pages), charges marshal + crossing, and
        // releases the receiver's references after the Pop unless the
        // transport retained (stashed out-of-order frames do).
        SendUpTo(fl.receiver.get(), m);
        stack_->FreeMessage(m, *domain());
      });
  return Status::kOk;
}

Status IncastWorld::AckChannel::Push(Message m) {
  // Receiver-domain references keep the ack header alive across the
  // reverse-path latency.
  Status st = stack_->RetainMessage(m, *domain());
  if (!Ok(st)) {
    return st;
  }
  Machine& mach = *stack_->machine();
  const SimTime arrival = mach.clock().Now() + kAckDelay;
  world_->loop.ScheduleAtLeast(
      arrival, "incast-ack",
      [this, m, arrival] {
        stack_->machine()->clock().AdvanceToAtLeast(arrival);
        Flow& fl = world_->flow(flow_);
        if (!fl.sender->aborted() && fl.sender_domain->alive()) {
          SendUpTo(fl.sender.get(), m);
        }
        stack_->FreeMessage(m, *domain());
      });
  return Status::kOk;
}

void IncastWorld::EnableLatency() {
  latency_enabled_ = true;
  for (auto& f : flows_) {
    f->sender->AttachLatency(&f->lat);
    f->producer->SampleQueueWait(&f->lat.queue_wait);
  }
}

void IncastWorld::StartProducers(int messages, std::uint64_t bytes) {
  for (auto& f : flows_) {
    f->producer->Start(messages, bytes);
  }
}

void IncastWorld::StopProducer(std::size_t flow) { flows_[flow]->producer->Stop(); }

std::uint64_t IncastWorld::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += f->sink->bytes_received();
  }
  return n;
}

std::uint64_t IncastWorld::total_retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += f->sender->retransmissions();
  }
  return n;
}

std::uint64_t IncastWorld::total_accepted() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += static_cast<std::uint64_t>(f->producer->accepted());
  }
  return n;
}

std::uint64_t IncastWorld::total_parks() const {
  std::uint64_t n = 0;
  for (const auto& f : flows_) {
    n += f->producer->parks();
  }
  return n;
}

bool IncastWorld::any_producer_stalled() const {
  for (const auto& f : flows_) {
    if (f->producer->stalled()) {
      return true;
    }
  }
  return false;
}

bool IncastWorld::any_producer_failed() const {
  for (const auto& f : flows_) {
    if (f->producer->failed()) {
      return true;
    }
  }
  return false;
}

}  // namespace fbufs
