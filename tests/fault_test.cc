// Fault-injection subsystem tests: knob clamping, leak-audit accessors,
// dead-domain guards, campaign determinism, and §3.3 cleanup under fire —
// including domain termination with fbufs in flight across a relay chain —
// plus the causality of the single-machine harness worlds under loss.
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/fault/campaign.h"
#include "src/fault/incast_world.h"
#include "src/fault/swp_world.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace {

// --- Knob clamping -----------------------------------------------------------

TEST(FaultKnobs, TopoLinkDropPercentSaturatesAt100) {
  TopologyConfig cfg;
  BuiltTopology b = BuildTopology(cfg);
  TopoLink& link = b.topo->link(0);
  link.set_drop_percent(250);
  EXPECT_EQ(link.drop_percent(), 100u);
  link.set_drop_percent(100);
  EXPECT_EQ(link.drop_percent(), 100u);
  link.set_drop_percent(7);
  EXPECT_EQ(link.drop_percent(), 7u);
}

TEST(FaultKnobs, LossyChannelDropPercentSaturatesAt100) {
  SwpWorld w;
  LossyChannel ch(w.sender_domain, &w.stack, /*seed=*/7, /*drop_percent=*/300);
  EXPECT_EQ(ch.drop_percent(), 100u);
  ch.set_drop_percent(101);
  EXPECT_EQ(ch.drop_percent(), 100u);
  ch.set_drop_percent(40);
  EXPECT_EQ(ch.drop_percent(), 40u);
}

TEST(FaultKnobs, SwitchQueueLimitIsRuntimeAdjustable) {
  SwitchNode sw("sw", {SwitchPortConfig{}});
  sw.Route(42, 0);
  sw.set_port_queue_limit(0, 0);
  EXPECT_EQ(sw.port_queue_limit(0), 0u);
  EXPECT_TRUE(sw.Forward(42, 1000, 0).dropped);
  EXPECT_EQ(sw.port_drops(0), 1u);
  sw.set_port_queue_limit(0, 4);
  EXPECT_FALSE(sw.Forward(42, 1000, 0).dropped);
}

// --- Leak-audit accessors ----------------------------------------------------

struct AuditWorld {
  AuditWorld() : machine(MachineConfig{}), fsys(&machine), rpc(&machine) {
    fsys.AttachRpc(&rpc);
    src = machine.CreateDomain("src");
    dst = machine.CreateDomain("dst");
    path = fsys.paths().Register({src->id(), dst->id()});
  }
  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  Domain* src = nullptr;
  Domain* dst = nullptr;
  PathId path = kNoPath;
};

TEST(FbufAudit, AccessorsTrackTheFbufLifecycle) {
  AuditWorld w;
  Fbuf* a = nullptr;
  Fbuf* b = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, kPageSize, true, &a)));
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, kPageSize, true, &b)));
  EXPECT_EQ(w.fsys.LiveFbufCount(), 2u);
  EXPECT_EQ(w.fsys.FreeListedFbufCount(), 0u);
  EXPECT_EQ(w.fsys.PagesOwnedBy(w.src->id()), 2u);
  EXPECT_EQ(w.fsys.FreeListSize(w.src->id(), w.path), 0u);

  ASSERT_TRUE(Ok(w.fsys.Transfer(a, *w.src, *w.dst)));
  // Receiver releases first so the *originator* makes the final release and
  // the fbuf free-lists immediately (a receiver's final release would park
  // it in the batched dealloc-notice queue instead).
  ASSERT_TRUE(Ok(w.fsys.Free(a, *w.dst)));
  ASSERT_TRUE(Ok(w.fsys.Free(a, *w.src)));
  ASSERT_TRUE(Ok(w.fsys.Free(b, *w.src)));
  EXPECT_EQ(w.fsys.LiveFbufCount(), 0u);
  EXPECT_EQ(w.fsys.FreeListedFbufCount(), 2u);
  EXPECT_EQ(w.fsys.FreeListSize(w.src->id(), w.path), 2u);
  EXPECT_EQ(w.fsys.PagesOwnedBy(w.src->id()), 2u);  // cached, still owned

  const FbufSystem::AuditCounts c = w.fsys.Audit();
  EXPECT_EQ(c.free_list_entries, 2u);
  EXPECT_EQ(c.free_list_errors, 0u);
  EXPECT_EQ(c.dangling_mappings, 0u);
  EXPECT_EQ(c.orphaned_live_fbufs, 0u);

  // Terminating the originator destroys its free lists and the cached
  // fbufs on them; nothing may linger.
  w.machine.DestroyDomain(w.src->id());
  EXPECT_EQ(w.fsys.FreeListedFbufCount(), 0u);
  EXPECT_EQ(w.fsys.FreeListSize(w.src->id(), w.path), 0u);
  EXPECT_EQ(w.fsys.PagesOwnedBy(w.src->id()), 0u);
  const FbufSystem::AuditCounts after = w.fsys.Audit();
  EXPECT_EQ(after.free_list_errors, 0u);
  EXPECT_EQ(after.dangling_mappings, 0u);
}

TEST(FbufAudit, AllocateIntoTerminatedDomainFails) {
  AuditWorld w;
  w.machine.DestroyDomain(w.src->id());
  Fbuf* fb = nullptr;
  EXPECT_EQ(w.fsys.Allocate(*w.src, kNoPath, kPageSize, true, &fb),
            Status::kInvalidArgument);
  EXPECT_EQ(fb, nullptr);
  EXPECT_EQ(w.fsys.LiveFbufCount(), 0u);
}

TEST(FbufAudit, TransferToTerminatedDomainFailsCleanly) {
  AuditWorld w;
  Fbuf* fb = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, kPageSize, true, &fb)));
  w.machine.DestroyDomain(w.dst->id());
  EXPECT_EQ(w.fsys.Transfer(fb, *w.src, *w.dst), Status::kInvalidArgument);
  ASSERT_TRUE(Ok(w.fsys.Free(fb, *w.src)));
  const FbufSystem::AuditCounts c = w.fsys.Audit();
  EXPECT_EQ(c.dangling_mappings, 0u);
  EXPECT_EQ(c.orphaned_live_fbufs, 0u);
}

TEST(FbufAudit, HostAuditIsCleanOnAHealthyWorld) {
  AuditWorld w;
  Fbuf* fb = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 2 * kPageSize, true, &fb)));
  w.src->TouchRange(fb->base, 2 * kPageSize, Access::kWrite);
  ASSERT_TRUE(Ok(w.fsys.Transfer(fb, *w.src, *w.dst)));
  w.dst->TouchRange(fb->base, 2 * kPageSize, Access::kRead);
  const HostAuditResult mid =
      InvariantAuditor::AuditHost("host", w.machine, w.fsys);
  EXPECT_TRUE(mid.passed);
  EXPECT_EQ(mid.leaked_frames, 0u);
  EXPECT_EQ(mid.refcount_mismatches, 0u);
  ASSERT_TRUE(Ok(w.fsys.Free(fb, *w.src)));
  ASSERT_TRUE(Ok(w.fsys.Free(fb, *w.dst)));
  const HostAuditResult done =
      InvariantAuditor::AuditHost("host", w.machine, w.fsys);
  EXPECT_TRUE(done.passed);
}

// --- Campaigns ---------------------------------------------------------------

void AuditAllHosts(CampaignRunner* cr, BuiltTopology* b) {
  for (NodeId n = 0; n < b->topo->node_count(); ++n) {
    if (!b->topo->is_switch(n)) {
      SimHost* h = b->topo->host(n);
      cr->AddAuditedHost(h->machine.name(), &h->machine, &h->fsys);
    }
  }
}

struct TerminateOutcome {
  std::string json;
  bool report_passed = false;
  bool flow_failed = false;
  bool flow_stalled = false;
  std::uint64_t sink_bytes = 0;
};

// Relay chain, one relay; terminates the domain named |victim| on the chosen
// host mid-flow and returns the campaign verdict.
TerminateOutcome RunTerminateCampaign(bool terminate_relay,
                                      std::uint64_t pdu_size,
                                      std::uint64_t message_bytes,
                                      std::uint64_t messages,
                                      SimTime terminate_at) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kRelayChain;
  cfg.relays = 1;
  cfg.host.pdu_size = pdu_size;
  BuiltTopology b = BuildTopology(cfg);

  CampaignRunner cr("test_terminate", Topology::kDefaultSeed, b.loop.get());
  cr.AttachTopology(b.topo.get(), b.runner.get());
  AuditAllHosts(&cr, &b);

  FaultSchedule s;
  FaultAction a;
  a.kind = FaultAction::Kind::kTerminateDomain;
  a.at = terminate_at;
  a.node = terminate_relay ? b.relay_nodes[0] : b.sender_nodes[0];
  a.domain = "app";
  a.label = terminate_relay ? "terminate/relay-app" : "terminate/sender-app";
  s.Add(a);
  cr.Arm(s);
  cr.ScheduleAudit(terminate_at, "post-terminate");

  std::vector<FlowTraffic> traffic(1);
  traffic[0].messages = messages;
  traffic[0].bytes = message_bytes;
  traffic[0].warmup = 2;
  const MultiResult mr = b.runner->RunFlows(traffic);

  TerminateOutcome out;
  out.flow_failed = mr.flows[0].failed;
  out.flow_stalled = mr.flows[0].stalled;
  out.sink_bytes = b.runner->flow_sink(0).bytes_received();
  CampaignReport report = cr.Finish();
  out.report_passed = report.audits_passed();
  out.json = report.ToJson();
  return out;
}

TEST(Campaigns, TerminateOriginatorMidFlowPassesInvariantAudit) {
  // ~3.3 ms/message end-to-end on the relay chain: 8 ms lets a couple of
  // messages land before the axe falls.
  const TerminateOutcome out = RunTerminateCampaign(
      /*terminate_relay=*/false, /*pdu=*/16 * 1024,
      /*message_bytes=*/16 * 1024, /*messages=*/30,
      /*terminate_at=*/8 * kMillisecond);
  // The flow fails cleanly (allocation in the dead originator is refused),
  // data already delivered survives at the receiver, and every host —
  // including the one with the terminated domain — audits leak-free.
  EXPECT_TRUE(out.flow_failed);
  EXPECT_FALSE(out.flow_stalled);
  EXPECT_GT(out.sink_bytes, 0u);
  EXPECT_TRUE(out.report_passed);
}

TEST(Campaigns, TerminateRelayWithFbufsInFlightFailsCleanly) {
  // 4 KB PDUs carrying 16 KB messages: every message is mid-reassembly on
  // the relay while its fragments cross, so termination catches fbufs in
  // flight (retained reassembly references, partially forwarded messages).
  // §3.3: the transfer into the dead domain is refused, the flow fails
  // cleanly — no use-after-free (ASan job) and no leaked frames.
  const TerminateOutcome out = RunTerminateCampaign(
      /*terminate_relay=*/true, /*pdu=*/4 * 1024,
      /*message_bytes=*/16 * 1024, /*messages=*/30,
      /*terminate_at=*/8 * kMillisecond);
  EXPECT_TRUE(out.flow_failed);
  EXPECT_FALSE(out.flow_stalled);
  EXPECT_GT(out.sink_bytes, 0u);
  EXPECT_TRUE(out.report_passed);
}

TEST(Campaigns, SameSeedProducesByteIdenticalReports) {
  const TerminateOutcome first = RunTerminateCampaign(
      false, 16 * 1024, 16 * 1024, 20, 1 * kMillisecond);
  const TerminateOutcome second = RunTerminateCampaign(
      false, 16 * 1024, 16 * 1024, 20, 1 * kMillisecond);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.json.empty());
}

TEST(Campaigns, AckPathOnlyLossRecoversWithoutCopies) {
  SwpWorldConfig wc;
  SwpWorld w(wc);
  CampaignRunner cr("test_ack_loss", 0, &w.loop);
  cr.AddConversation("swp", &w.sender, &w.receiver, &w.sink, &w.machine);
  cr.AttachChannels(&w.fwd, &w.rev);
  cr.AddAuditedHost(w.machine.name(), &w.machine, &w.fsys);

  FaultSchedule s;
  FaultAction a;
  a.kind = FaultAction::Kind::kAckPathOnlyLoss;
  // A lossless run completes synchronously at loop time zero, so the window
  // must open at t=0 (Arm precedes the producer's first event) to bite.
  a.at = 0;
  a.duration = 6 * kMillisecond;
  a.percent = 50;
  a.label = "ack-loss";
  s.Add(a);
  cr.Arm(s);

  constexpr int kMessages = 24;
  w.StartProducer(kMessages, 32 * 1024);
  w.loop.Run();

  EXPECT_EQ(w.accepted(), kMessages);
  // The data path never lost a frame: every retransmission the ack loss
  // provoked arrived as a duplicate.
  EXPECT_EQ(w.fwd.dropped(), 0u);
  EXPECT_GT(w.rev.dropped(), 0u);
  CampaignReport report = cr.Finish();
  EXPECT_TRUE(report.audits_passed());
  const CampaignReport::AuditEntry& final_audit = report.audits().back();
  ASSERT_EQ(final_audit.conversations.size(), 1u);
  EXPECT_EQ(final_audit.conversations[0].first, "swp");
  const SwpAuditResult& swp = final_audit.conversations[0].second;
  EXPECT_FALSE(swp.window_wedged);
  EXPECT_EQ(swp.bytes_copied, 0u);
  // Both channels' drops land in the phase rows, and nothing else does.
  std::uint64_t phase_drops = 0;
  for (const CampaignReport::Phase& p : report.phases()) {
    phase_drops += p.drops;
  }
  EXPECT_EQ(phase_drops, w.fwd.dropped() + w.rev.dropped());
}

TEST(Campaigns, LinkFaultsRestoreTheirPriorValues) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = 2;
  BuiltTopology b = BuildTopology(cfg);
  CampaignRunner cr("test_restore", Topology::kDefaultSeed, b.loop.get());
  cr.AttachTopology(b.topo.get(), b.runner.get());
  AuditAllHosts(&cr, &b);

  FaultSchedule s;
  FaultAction burst;
  burst.kind = FaultAction::Kind::kLossBurst;
  burst.at = kMillisecond;
  burst.duration = 2 * kMillisecond;
  burst.link = b.sender_links[0];
  burst.percent = 30;
  burst.label = "burst";
  s.Add(burst);
  FaultAction squeeze;
  squeeze.kind = FaultAction::Kind::kSqueezeSwitchQueue;
  squeeze.at = kMillisecond;
  squeeze.duration = 2 * kMillisecond;
  squeeze.node = b.switch_node;
  squeeze.queue_pdus = 1;
  squeeze.label = "squeeze";
  s.Add(squeeze);
  cr.Arm(s);

  const std::size_t prior_queue = b.topo->switch_at(b.switch_node)
                                      ->port_queue_limit(0);
  std::vector<FlowTraffic> traffic(2);
  for (FlowTraffic& t : traffic) {
    t.messages = 40;
    t.bytes = cfg.host.pdu_size;
    t.warmup = 2;
  }
  const MultiResult mr = b.runner->RunFlows(traffic);
  EXPECT_FALSE(mr.failed);
  EXPECT_EQ(b.topo->link(b.sender_links[0]).drop_percent(), 0u);
  EXPECT_EQ(b.topo->switch_at(b.switch_node)->port_queue_limit(0), prior_queue);
  CampaignReport report = cr.Finish();
  EXPECT_TRUE(report.audits_passed());
}

// --- Quota edge cases --------------------------------------------------------

TEST(Quota, QuotaOfExactlyOneFbufAllowsReuseAndShrinksToFit) {
  AuditWorld w;
  w.fsys.SetDomainQuota(w.src->id(), 4);

  Fbuf* a = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &a)));
  EXPECT_EQ(w.fsys.DomainPagesInUse(w.src->id()), 4u);

  // A second carve would grow past the quota.
  Fbuf* b = nullptr;
  EXPECT_EQ(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &b),
            Status::kQuotaExceeded);

  // Freeing keeps the pages charged (free-listed fbufs still count), but
  // reuse of the domain's own free list is always allowed.
  ASSERT_TRUE(Ok(w.fsys.Free(a, *w.src)));
  EXPECT_EQ(w.fsys.DomainPagesInUse(w.src->id()), 4u);
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &b)));
  EXPECT_EQ(b, a);  // cache hit, no growth

  // A different size cannot reuse the free list, but the carve shrinks the
  // domain's own free-listed fbufs to make quota room.
  ASSERT_TRUE(Ok(w.fsys.Free(b, *w.src)));
  Fbuf* small = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 2 * kPageSize, true, &small)));
  EXPECT_EQ(w.fsys.DomainPagesInUse(w.src->id()), 2u);
  EXPECT_EQ(w.fsys.FreeListSize(w.src->id(), w.path), 0u);
  EXPECT_EQ(w.fsys.Audit().free_list_errors, 0u);
}

TEST(Quota, ShrinkingTheQuotaBelowUsageBlocksGrowthButNotReuse) {
  AuditWorld w;
  w.fsys.SetDomainQuota(w.src->id(), 16);
  Fbuf* a = nullptr;
  Fbuf* b = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &a)));
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &b)));
  EXPECT_EQ(w.fsys.DomainPagesInUse(w.src->id()), 8u);

  // Tighten the quota below what is already outstanding: existing fbufs are
  // unaffected, growth fails, reuse still works.
  w.fsys.SetDomainQuota(w.src->id(), 4);
  Fbuf* c = nullptr;
  EXPECT_EQ(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &c),
            Status::kQuotaExceeded);
  ASSERT_TRUE(Ok(w.fsys.Free(b, *w.src)));
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &c)));
  EXPECT_EQ(c, b);
  EXPECT_EQ(w.fsys.DomainPagesInUse(w.src->id()), 8u);
}

TEST(Quota, TerminationReleasesTheDomainsEntireQuotaCharge) {
  AuditWorld w;
  Fbuf* live = nullptr;
  Fbuf* cached = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 4 * kPageSize, true, &live)));
  ASSERT_TRUE(Ok(w.fsys.Allocate(*w.src, w.path, 2 * kPageSize, true, &cached)));
  ASSERT_TRUE(Ok(w.fsys.Free(cached, *w.src)));
  EXPECT_EQ(w.fsys.DomainPagesInUse(w.src->id()), 6u);

  const DomainId victim = w.src->id();
  w.machine.DestroyDomain(victim);
  EXPECT_EQ(w.fsys.DomainPagesInUse(victim), 0u);
  EXPECT_EQ(w.fsys.PagesOwnedBy(victim), 0u);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

// --- Producer backoff under pool exhaustion ----------------------------------

TEST(SwpBackpressure, WindowNeverWedgesAcrossMultipleExhaustedRtos) {
  SwpWorldConfig wc;
  wc.phys_frames = 96;
  SwpWorld w(wc);

  // A hoarder leaves fewer free frames than one 8-page message needs; the
  // producer must park across several RTOs without wedging the window.
  Domain* hoarder = w.machine.CreateDomain("hoarder");
  std::vector<Fbuf*> hoard;
  while (w.machine.pmem().free_frames() > 6) {
    const std::uint64_t take =
        std::min<std::uint64_t>(w.machine.pmem().free_frames() - 6,
                                w.fsys.config().chunk_pages);
    Fbuf* fb = nullptr;
    ASSERT_TRUE(Ok(w.fsys.Allocate(*hoarder, kNoPath, take * kPageSize, false, &fb)));
    hoard.push_back(fb);
  }

  // Release the hoard after three RTOs' worth of failed retries. Anchor on
  // the machine clock: the hoard setup above charged allocation time, and
  // the producer's retries are scheduled relative to that clock.
  w.loop.Schedule(w.machine.clock().Now() + 3 * wc.rto, "release-hoard", [&w, &hoard] {
    for (Fbuf* fb : hoard) {
      w.fsys.Free(fb, *w.machine.domain(fb->originator));
    }
    hoard.clear();
  });

  const int kMessages = 12;
  w.StartProducer(kMessages, 32 * 1024);
  w.loop.Run();

  EXPECT_EQ(w.accepted(), kMessages);
  EXPECT_GE(w.producer_parks(), 2u);
  EXPECT_FALSE(w.producer_stalled());
  EXPECT_FALSE(w.producer_failed());
  EXPECT_EQ(w.sender.unacked(), 0u);  // the window drained, never wedged
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

TEST(SwpBackpressure, StallWatchdogFailsTheProducerInsteadOfSpinning) {
  SwpWorldConfig wc;
  wc.phys_frames = 64;
  wc.stall_horizon = 20 * kMillisecond;
  SwpWorld w(wc);

  // The hoard is never released: the watchdog must end the run cleanly.
  Domain* hoarder = w.machine.CreateDomain("hoarder");
  std::vector<Fbuf*> hoard;
  while (w.machine.pmem().free_frames() > 6) {
    const std::uint64_t take =
        std::min<std::uint64_t>(w.machine.pmem().free_frames() - 6,
                                w.fsys.config().chunk_pages);
    Fbuf* fb = nullptr;
    ASSERT_TRUE(Ok(w.fsys.Allocate(*hoarder, kNoPath, take * kPageSize, false, &fb)));
    hoard.push_back(fb);
  }

  w.StartProducer(4, 32 * 1024);
  w.loop.Run();  // must go quiescent — no endless retry loop

  EXPECT_TRUE(w.producer_stalled());
  EXPECT_FALSE(w.producer_failed());
  EXPECT_EQ(w.accepted(), 0);
  EXPECT_GE(w.producer_parks(), 1u);
}

// --- Causality: a host never trails its own events ---------------------------

// Dispatches |loop| one event at a time and counts the events after which
// |machine|'s clock trails the loop's dispatch floor: work the host ran
// before its input arrived. Every host wake goes through ScheduleOn, so a
// single-machine world must never trail.
std::uint64_t EventsBehindTheLoop(EventLoop& loop, const Machine& machine) {
  std::uint64_t behind = 0;
  std::uint64_t events = 0;
  while (loop.RunOne()) {
    events++;
    if (machine.clock().Now() < loop.Now()) {
      behind++;
    }
  }
  EXPECT_GT(events, 0u);
  return behind;
}

TEST(Causality, SwpWorldUnderLossNeverTrailsItsEvents) {
  SwpWorldConfig wc;
  wc.fwd_loss = 40;
  wc.rev_loss = 40;
  SwpWorld w(wc);
  w.StartProducer(64, 32 * 1024);
  EXPECT_EQ(EventsBehindTheLoop(w.loop, w.machine), 0u);
  EXPECT_EQ(w.accepted(), 64);
}

TEST(Causality, IncastCreditAndAimdWorldsNeverTrailTheirEvents) {
  for (const TransportKind kind : {TransportKind::kCredit, TransportKind::kAimd}) {
    IncastWorldConfig cfg;
    cfg.kind = kind;
    cfg.racks = 1;
    cfg.senders_per_rack = 2;
    cfg.ecn_threshold_pdus = kind == TransportKind::kAimd ? 8 : 0;
    IncastWorld w(cfg);
    w.StartProducers(16, 8 * kPageSize);
    EXPECT_EQ(EventsBehindTheLoop(w.loop, w.machine), 0u)
        << TransportKindName(kind);
    EXPECT_EQ(w.total_accepted(), 32u) << TransportKindName(kind);
  }
}

}  // namespace
}  // namespace fbufs
