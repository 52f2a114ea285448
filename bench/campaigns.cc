// Fault-injection campaign driver: scripted failures against live worlds,
// with §3.3 cleanup rules audited under fire.
//
// Seven named campaigns, each writing CAMPAIGN_<name>.json:
//
//   loss_burst           — two senders fan in through one switch port; a 30%
//                          loss burst hits one uplink, the trunk flaps dark,
//                          then the switch queue is squeezed to one PDU.
//                          Per-phase goodput shows degradation and recovery;
//                          every host audits clean throughout.
//   ack_only_loss        — SWP pair: only the ack channel drops frames for a
//                          while. Data arrives fine, yet the sender
//                          retransmits (duplicates, not losses) until the
//                          cumulative acks get through — with zero bytes
//                          copied, because retransmission works from
//                          retained fbuf references (§2.1.3).
//   rto_sweep            — SWP pair at 20% symmetric loss, retransmission
//                          timeout swept 0.5–8 ms: goodput vs spurious-
//                          retransmission tradeoff, window never wedged.
//   terminate_originator — relay chain; the sender's app domain (the data
//                          fbufs' originator) is destroyed mid-flow. The
//                          flow fails cleanly, receiver-side data survives,
//                          and the terminated host audits with zero leaked
//                          frames and zero dangling mappings.
//   hoarder              — a third domain pins nearly the whole physical
//                          pool; the SWP producer parks on the shared
//                          backoff under exhaustion. Terminating the
//                          hoarder reclaims its entire quota (§3.3), the
//                          producer resumes, and the run drains clean.
//   server_churn         — a ServeWorld client's app domain is destroyed
//                          mid-download and its access link flaps dark. The
//                          dead client's flows fail, every other client
//                          drains, and the post-churn audit shows zero
//                          leaked frames with every cache pin released.
//   congestion_collapse  — sixteen fixed-window flows incast through the
//                          rack fabric; the core downlink queue is squeezed
//                          to four PDUs, a loss burst hits one ingress
//                          wire, and one sender's domain is destroyed
//                          mid-retransmit with its window pinned in the
//                          ledger. Survivors drain through the storm; the
//                          victim's ledger reclaims, its receiver-side
//                          conversation shuts down with no stranded stash,
//                          and every audit (host §3.3 plus per-conversation
//                          window/ledger) is clean.
//
// Everything is deterministic: same seed and schedule produce byte-identical
// JSON. --smoke scales message counts and fault times down for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/capture.h"
#include "src/fault/campaign.h"
#include "src/fault/incast_world.h"
#include "src/fault/swp_world.h"
#include "src/obs/trace_export.h"
#include "src/serve/serve_world.h"
#include "src/sim/rng.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

// Smoke mode divides both the traffic and the fault timeline by this factor,
// keeping every fault inside the (shorter) run.
std::uint64_t g_scale = 1;

SimTime At(std::uint64_t ms) { return ms * kMillisecond / g_scale; }

// Report seed of the SWP-world campaigns: both loss streams' seeds folded.
constexpr std::uint64_t kSwpSeed = SwpWorld::kFwdSeed ^ SwpWorld::kRevSeed;

void AuditAllHosts(CampaignRunner* cr, Topology& topo) {
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (topo.is_switch(n)) {
      continue;
    }
    SimHost* h = topo.host(n);
    cr->AddAuditedHost(h->machine.name(), &h->machine, &h->fsys);
  }
}

void PrintReport(const CampaignReport& r) {
  std::printf("\n--- campaign %s: %s ---\n", r.name().c_str(),
              r.passed() ? "PASSED" : "FAILED");
  std::printf("%-28s %10s %10s %12s %8s %6s\n", "phase", "start-ms", "end-ms",
              "goodput", "drops", "retx");
  for (const CampaignReport::Phase& p : r.phases()) {
    std::printf("%-28s %10.2f %10.2f %9.1f Mb %8llu %6llu\n", p.label.c_str(),
                p.start_ns / 1e6, p.end_ns / 1e6, p.goodput_mbps,
                static_cast<unsigned long long>(p.drops),
                static_cast<unsigned long long>(p.retransmissions));
  }
  for (const CampaignReport::AuditEntry& a : r.audits()) {
    std::printf("audit %-22s at %8.2f ms: %s", a.label.c_str(), a.at_ns / 1e6,
                a.passed ? "clean" : "VIOLATIONS");
    for (const HostAuditResult& h : a.hosts) {
      if (!h.passed) {
        std::printf("  [%s: leaked=%llu rc-mismatch=%llu dangling=%llu "
                    "freelist=%llu]",
                    h.host.c_str(),
                    static_cast<unsigned long long>(h.leaked_frames),
                    static_cast<unsigned long long>(h.refcount_mismatches),
                    static_cast<unsigned long long>(h.dangling_mappings),
                    static_cast<unsigned long long>(h.free_list_errors));
      }
    }
    for (const auto& [flow, c] : a.conversations) {
      if (!c.passed) {
        std::printf("  [%s: unacked=%u stashed=%llu copied=%llu pinned=%llu "
                    "ledger-mismatch=%llu]",
                    flow.c_str(), c.unacked,
                    static_cast<unsigned long long>(c.stashed),
                    static_cast<unsigned long long>(c.bytes_copied),
                    static_cast<unsigned long long>(c.ledger_pinned),
                    static_cast<unsigned long long>(c.ledger_mismatch));
      }
    }
    std::printf("\n");
  }
  if (!r.outcome_note().empty()) {
    std::printf("outcome: %s\n", r.outcome_note().c_str());
  }
}

// --- Observation -------------------------------------------------------------
//
// Every campaign writes TRACE_<name>.json alongside its CAMPAIGN_<name>.json:
// a Chrome trace_event timeline (load in Perfetto) with one process per
// traced host, one lane per trace category, fault-phase markers from the
// CampaignRunner, and busy-interval lanes for the contended resources. Its
// RunCapture also keeps fbuf journeys on every host, audited beside the
// §3.3 audits: every recorded journey must end in kFree (or kAbort when its
// domain was terminated) with its pins balanced, and termination campaigns
// that axe a domain holding fbufs demand at least one abort.

// Traces and journeys on every host of |topo|, busy intervals on every
// switch port and wire.
void WatchTopology(RunCapture& capture, Topology& topo) {
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (!topo.is_switch(n)) {
      capture.Watch(topo.host(n)->machine, {.trace = true, .journeys = true});
    }
  }
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    if (!topo.is_switch(n)) {
      continue;
    }
    SwitchNode* sw = topo.switch_at(n);
    for (std::size_t p = 0; p < sw->port_count(); ++p) {
      capture.Watch(sw->port_resource(p));
    }
  }
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    capture.Watch(topo.link(l).wire());
  }
}

// --- Campaign 1: loss burst, link flap, and queue squeeze under fan-in -------

CampaignReport RunLossBurst() {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = 2;
  cfg.sender_link_mbps = 60.0;
  cfg.switch_port.mbps = 140.0;
  BuiltTopology b = BuildTopology(cfg);
  RunCapture capture("loss_burst", /*traced=*/true);
  WatchTopology(capture, *b.topo);

  CampaignRunner cr("loss_burst", Topology::kDefaultSeed, b.loop.get());
  cr.AttachTopology(b.topo.get(), b.runner.get());
  AuditAllHosts(&cr, *b.topo);

  FaultSchedule s;
  s.name = "loss_burst";
  s.Add({.kind = FaultAction::Kind::kLossBurst,
         .at = At(80),
         .duration = At(80),
         .link = b.sender_links[0],
         .percent = 30,
         .label = "burst30/uplink0"});
  s.Add({.kind = FaultAction::Kind::kLinkFlap,
         .at = At(220),
         .duration = At(15),
         .link = b.trunk_link,
         .label = "flap/trunk"});
  s.Add({.kind = FaultAction::Kind::kSqueezeSwitchQueue,
         .at = At(300),
         .duration = At(60),
         .node = b.switch_node,
         .queue_pdus = 1,
         .label = "squeeze/port0"});
  cr.Arm(s);
  cr.ScheduleAudit(At(150), "mid-burst");

  // Single-fragment datagrams: one shed PDU costs one message, so goodput
  // degrades instead of collapsing (same choice as fanin_contention).
  std::vector<FlowTraffic> traffic(cfg.senders);
  for (FlowTraffic& t : traffic) {
    t.messages = 192 / g_scale;
    t.bytes = cfg.host.pdu_size;
    t.warmup = 4;
  }
  const MultiResult mr = b.runner->RunFlows(traffic);
  bool flows_ok = !mr.failed;
  for (const FlowResult& f : mr.flows) {
    flows_ok = flows_ok && !f.stalled;
  }
  flows_ok = flows_ok && capture.Journeys(/*allow_open=*/true).ok;
  cr.SetOutcome(flows_ok, flows_ok
                              ? "all flows drained despite burst+flap+squeeze"
                              : "a flow failed or wedged");
  CampaignReport rep = cr.Finish();
  capture.WriteTrace();
  return rep;
}

// --- Campaign 2: loss on the ack path only -----------------------------------

CampaignReport RunAckOnlyLoss() {
  SwpWorldConfig wc;
  SwpWorld w(wc);
  RunCapture capture("ack_only_loss", /*traced=*/true);
  capture.Watch(w.machine, {.trace = true, .journeys = true});

  CampaignRunner cr("ack_only_loss", kSwpSeed, &w.loop);
  cr.AddConversation("swp", &w.sender, &w.receiver, &w.sink, &w.machine);
  cr.AttachChannels(&w.fwd, &w.rev);
  cr.AddAuditedHost(w.machine.name(), &w.machine, &w.fsys);

  FaultSchedule s;
  s.name = "ack_only_loss";
  // With a clean ack path the whole run completes synchronously at loop
  // time zero (acks return in-call; only RTO recovery advances the clock),
  // so the loss window must open at t=0 — Arm() runs before the producer's
  // first event — and stay open across a few RTOs.
  s.Add({.kind = FaultAction::Kind::kAckPathOnlyLoss,
         .at = 0,
         .duration = At(6),
         .percent = 50,
         .label = "ack-loss50"});
  cr.Arm(s);
  cr.ScheduleAudit(At(2), "mid-ack-loss");

  w.StartProducer(static_cast<int>(96 / g_scale), 32 * 1024);
  w.loop.Run();

  const bool done = w.accepted() == static_cast<int>(96 / g_scale) &&
                    capture.Journeys(/*allow_open=*/true).ok;
  const std::uint64_t dupes = w.receiver.duplicates_dropped();
  cr.SetOutcome(done && dupes > 0,
                done ? "window recovered; retransmissions were duplicates "
                       "(data path never lost a frame)"
                     : "producer never finished");
  CampaignReport rep = cr.Finish();
  capture.WriteTrace();
  return rep;
}

// --- Campaign 3: RTO sensitivity sweep at fixed symmetric loss ---------------

CampaignReport RunRtoSweep() {
  CampaignReport master("rto_sweep", kSwpSeed);
  master.AddScheduledFault({"symmetric-loss20", "set_link_loss", 0, 0, 20});
  bool all_ok = true;
  // Five short-lived worlds merge into one trace: each point's own capture
  // arms its ring and judges its journeys, and its host joins this exporter
  // as one process before the world dies with the iteration.
  TraceExporter ex;
  std::uint32_t pid = 1;
  const int messages = static_cast<int>(48 / g_scale);
  for (const SimTime rto_us : {500u, 1000u, 2000u, 4000u, 8000u}) {
    SwpWorldConfig wc;
    wc.rto = rto_us * kMicrosecond;
    wc.fwd_loss = 20;
    wc.rev_loss = 20;
    SwpWorld w(wc);
    RunCapture capture("rto_sweep", /*traced=*/true);
    capture.Watch(w.machine, {.trace = true, .journeys = true});

    CampaignRunner cr("rto_sweep_point", kSwpSeed, &w.loop);
    cr.AddConversation("swp", &w.sender, &w.receiver, &w.sink, &w.machine);
    cr.AttachChannels(&w.fwd, &w.rev);
    cr.AddAuditedHost(w.machine.name(), &w.machine, &w.fsys);
    cr.Arm(FaultSchedule{});

    const SimTime t0 = w.machine.clock().Now();
    w.StartProducer(messages, 32 * 1024);
    w.loop.Run();
    const SimTime elapsed = w.machine.clock().Now() - t0;

    CampaignReport point = cr.Finish();
    const bool ok = point.audits_passed() && w.accepted() == messages &&
                    capture.Journeys(/*allow_open=*/true).ok;
    all_ok = all_ok && ok;
    for (CampaignReport::AuditEntry a : point.audits()) {
      a.label = "rto=" + std::to_string(rto_us) + "us/" + a.label;
      master.AddAudit(std::move(a));
    }
    master.AddRow(
        {{"rto_us", static_cast<double>(rto_us)},
         {"goodput_mbps", elapsed > 0
                              ? static_cast<double>(w.sink.bytes_received()) *
                                    8.0 * 1000.0 / static_cast<double>(elapsed)
                              : 0.0},
         {"retx_per_msg", static_cast<double>(w.sender.retransmissions()) /
                              static_cast<double>(messages)},
         {"timer_fires", static_cast<double>(w.sender.timer_fires())},
         {"duplicates", static_cast<double>(w.receiver.duplicates_dropped())},
         {"wedged", w.sender.unacked() > 0 ? 1.0 : 0.0}});
    ex.AddHost("rto=" + std::to_string(rto_us) + "us", pid++,
               w.machine.trace());
  }
  master.SetOutcome(all_ok, all_ok ? "every RTO point drained and audited clean"
                                   : "a sweep point wedged or failed its audit");
  if (ex.WriteFile("TRACE_rto_sweep.json")) {
    std::fprintf(stderr, "wrote TRACE_rto_sweep.json (%zu events)\n",
                 ex.event_count());
  }
  return master;
}

// --- Campaign 4: terminate the data fbufs' originator mid-flow ---------------

CampaignReport RunTerminateOriginator() {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kRelayChain;
  cfg.relays = 1;
  BuiltTopology b = BuildTopology(cfg);
  RunCapture capture("terminate_originator", /*traced=*/true);
  WatchTopology(capture, *b.topo);

  CampaignRunner cr("terminate_originator", Topology::kDefaultSeed,
                    b.loop.get());
  cr.AttachTopology(b.topo.get(), b.runner.get());
  AuditAllHosts(&cr, *b.topo);

  // The sender host's "app" domain runs the SourceProtocol — it is the
  // originator of every data fbuf in flight across the chain.
  FaultSchedule s;
  s.name = "terminate_originator";
  // Absolute, NOT smoke-scaled: per-message latency (~3.3 ms through the
  // chain) does not shrink with the traffic volume, and the termination
  // must land after the first deliveries in either mode.
  constexpr SimTime kAxe = 10 * kMillisecond;
  s.Add({.kind = FaultAction::Kind::kTerminateDomain,
         .at = kAxe,
         .node = b.sender_nodes[0],
         .domain = "app",
         .label = "terminate/sender-app"});
  cr.Arm(s);
  // Armed after the fault at the same timestamp, so it observes the world
  // immediately after the kernel's cleanup ran.
  cr.ScheduleAudit(kAxe, "post-terminate");

  std::vector<FlowTraffic> traffic(1);
  traffic[0].messages = 160 / g_scale;
  traffic[0].bytes = cfg.host.pdu_size;
  traffic[0].warmup = 4;
  const MultiResult mr = b.runner->RunFlows(traffic);

  const FlowResult& f = mr.flows[0];
  const std::uint64_t sink_bytes = b.runner->flow_sink(0).bytes_received();
  // The provenance record must reconcile with no orphans: the app's sends
  // are synchronous within events, so at the axe (an event boundary) it
  // holds nothing and every journey it opened has already closed — what
  // the audit proves here is that the §3.3 sweep left nothing open or
  // imbalanced, not that aborts occurred (a held buffer at the axe would
  // surface as an abort hop; the hoarder campaign exercises that arm).
  const bool ok = f.failed && !f.stalled && sink_bytes > 0 &&
                  capture.Journeys(/*allow_open=*/true).ok;
  cr.SetOutcome(
      ok, ok ? "flow failed cleanly at termination; receiver-side data "
               "delivered before the fault survived"
             : "expected a clean failure with surviving receiver data");
  CampaignReport rep = cr.Finish();
  capture.WriteTrace();
  return rep;
}

// --- Campaign 5: terminate a hoarding domain, reclaiming its quota -----------

CampaignReport RunHoarder() {
  SwpWorldConfig wc;
  wc.phys_frames = 512;
  SwpWorld w(wc);
  RunCapture capture("hoarder", /*traced=*/true);
  capture.Watch(w.machine, {.trace = true, .journeys = true});

  CampaignRunner cr("hoarder", kSwpSeed, &w.loop);
  cr.AddConversation("swp", &w.sender, &w.receiver, &w.sink, &w.machine);
  cr.AttachChannels(&w.fwd, &w.rev);
  cr.AddAuditedHost(w.machine.name(), &w.machine, &w.fsys);

  // Before any traffic, a third domain grabs nearly the whole pool in
  // chunk-sized uncached fbufs, leaving fewer free frames than one data
  // message needs. The producer's first allocation fails and it parks on
  // the shared backoff.
  Domain* hoarder = w.machine.CreateDomain("hoarder");
  constexpr std::uint32_t kHeadroom = 6;
  while (w.machine.pmem().free_frames() > kHeadroom) {
    const std::uint64_t take =
        std::min<std::uint64_t>(w.machine.pmem().free_frames() - kHeadroom,
                                w.fsys.config().chunk_pages);
    Fbuf* fb = nullptr;
    if (!Ok(w.fsys.Allocate(*hoarder, kNoPath, take * kPageSize, false, &fb)) ||
        !Ok(hoarder->TouchRange(fb->base, take * kPageSize, Access::kWrite))) {
      if (fb != nullptr) {
        w.fsys.Free(fb, *hoarder);
      }
      break;
    }
    // The hoarder never frees: only its termination can give the frames back.
  }
  const DomainId hoarder_id = hoarder->id();
  const std::uint64_t hoarded = w.fsys.PagesOwnedBy(hoarder_id);

  FaultSchedule s;
  s.name = "hoarder";
  // Absolute, NOT smoke-scaled: the producer's backoff ramp (one RTO, then
  // doubling) must visibly fail a few times before the axe falls, whatever
  // the traffic volume.
  constexpr SimTime kAxe = 10 * kMillisecond;
  s.Add({.kind = FaultAction::Kind::kTerminateDomain,
         .at = kAxe,
         .domain = "hoarder",
         .label = "terminate/hoarder"});
  cr.Arm(s);
  // Immediately after the kernel's §3.3 cleanup reclaimed the hoard.
  cr.ScheduleAudit(kAxe, "post-terminate");

  const int messages = static_cast<int>(96 / g_scale);
  w.StartProducer(messages, 32 * 1024);
  w.loop.Run();

  const bool drained = w.accepted() == messages && !w.producer_stalled() &&
                       !w.producer_failed();
  const bool reclaimed = w.fsys.PagesOwnedBy(hoarder_id) == 0;
  // The hoarder's reclaimed fbufs must show as aborted journeys.
  const bool ok = drained && reclaimed && hoarded > 0 &&
                  w.producer_parks() > 0 &&
                  capture.Journeys(/*allow_open=*/true, /*min_aborts=*/1).ok;
  cr.SetOutcome(
      ok, ok ? "producer parked under exhaustion, resumed after the hoarder's "
               "termination returned its " +
                   std::to_string(hoarded) + " pages, and drained"
             : "expected park -> terminate -> full quota reclaim -> drain");
  CampaignReport rep = cr.Finish();
  capture.WriteTrace();
  return rep;
}

// --- Campaign 6: destroy a file-serving client mid-download ------------------

CampaignReport RunServerChurn() {
  ServeWorldConfig wc;
  wc.clients = 4;
  ServeWorld world(wc);
  // Journeys on every host; traces on the server and the victim client.
  RunCapture capture("server_churn", /*traced=*/true);
  for (NodeId n = 0; n < world.topo().node_count(); ++n) {
    if (world.topo().is_switch(n)) {
      continue;
    }
    const bool traced = n == world.server_node() || n == world.client_node(0);
    capture.Watch(world.topo().host(n)->machine,
                  {.trace = traced, .journeys = true});
  }

  CampaignRunner cr("server_churn", ServeWorld::kTopoSeed, &world.loop());
  // No TopologyRunner here — ServeWorld drives its own wire — so phase rows
  // carry audits and fault markers, not flow goodput.
  cr.AttachTopology(&world.topo(), nullptr);
  AuditAllHosts(&cr, world.topo());

  FaultSchedule s;
  s.name = "server_churn";
  // Absolute, NOT smoke-scaled: each cache miss advances the server clock by
  // a disk access (~2 ms), so deliveries land long after the arrival storm
  // in either mode — the axe at 10 ms falls while downloads are in flight.
  constexpr SimTime kAxe = 10 * kMillisecond;
  s.Add({.kind = FaultAction::Kind::kTerminateDomain,
         .at = kAxe,
         .node = world.client_node(0),
         .domain = world.client(0).sink->domain()->name(),
         .label = "terminate/client0-app"});
  s.Add({.kind = FaultAction::Kind::kLinkFlap,
         .at = kAxe,
         .duration = At(20),
         .link = world.client_link(0),
         .label = "flap/client0-link"});
  cr.Arm(s);
  // Immediately after the kernel's §3.3 cleanup swept the dead domain.
  cr.ScheduleAudit(kAxe, "post-churn");

  std::vector<ServeRequestSpec> schedule;
  Rng pick(ServeWorld::kTopoSeed ^ 0xc402);
  const std::uint64_t requests = 2000 / g_scale;
  for (std::uint64_t i = 0; i < requests; ++i) {
    ServeRequestSpec r;
    r.at = i * 5000;  // 5 us interarrival: the storm outpaces the disk
    r.client = static_cast<std::uint32_t>(i % wc.clients);
    r.file = pick.Next() % 64;
    r.blocks = 1 + static_cast<std::uint32_t>(pick.Next() % 4);
    schedule.push_back(r);
  }
  const ServeRunStats st = world.Run(schedule);

  const bool pins_clean = world.cache().total_pins() == 0 &&
                          world.file_server().inflight_requests() == 0;
  // The in-flight state at the axe is server-side (pinned blocks for the
  // dead client's downloads, on fbufs whose originators stay alive): it
  // must unwind as failed sends whose journeys close with balanced pins —
  // exactly what Reconcile's pin_imbalance==0 certifies. The dead client's
  // own journeys all closed before the axe (its request/response handling
  // is synchronous within events), so no abort floor applies here.
  const bool ok = pins_clean && st.failed > 0 && st.completed > 0 &&
                  st.completed + st.failed == st.requests &&
                  capture.Journeys(/*allow_open=*/true).ok;
  cr.SetOutcome(
      ok, ok ? "dead client's " + std::to_string(st.failed) +
                   " flows failed cleanly; " + std::to_string(st.completed) +
                   " drained; every cache pin released"
             : "expected clean per-flow failure with zero retained pins");
  CampaignReport rep = cr.Finish();
  rep.AddRow({{"requests", static_cast<double>(st.requests)},
              {"completed", static_cast<double>(st.completed)},
              {"failed", static_cast<double>(st.failed)},
              {"served_blocks", static_cast<double>(st.served_blocks)},
              {"hit_ratio", st.hit_ratio},
              {"goodput_mbps", st.goodput_mbps}});
  capture.WriteTrace();
  return rep;
}

// --- Campaign 7: incast storm with a queue squeeze, loss burst, and axe ------

CampaignReport RunCongestionCollapse() {
  IncastWorldConfig wc;
  wc.kind = TransportKind::kFixedWindow;
  wc.racks = 2;
  // 16 flows x window 8 = 4x the core queue — past the incast bench's knee,
  // where the aggregate offered load (CPU-paced) genuinely exceeds the core
  // line rate and the queue stays saturated. Half that fan-in sits at the
  // margin where ack clocking keeps the queue near-empty and no fault can
  // raise a storm.
  wc.senders_per_rack = 8;
  IncastWorld w(wc);
  RunCapture capture("congestion_collapse", /*traced=*/true);
  capture.Watch(w.machine, {.trace = true, .journeys = true});
  for (std::uint32_t r = 0; r < wc.racks; ++r) {
    capture.Watch(w.topo.switch_at(w.tor_node(r))->port_resource(0));
  }
  capture.Watch(w.topo.switch_at(w.core_node())->port_resource(0));

  CampaignRunner cr("congestion_collapse", wc.seed, &w.loop);
  cr.AttachTopology(&w.topo, nullptr);
  cr.AddAuditedHost(w.machine.name(), &w.machine, &w.fsys);
  for (std::size_t i = 0; i < w.flow_count(); ++i) {
    IncastWorld::Flow& f = w.flow(i);
    cr.AddConversation("flow" + std::to_string(i), f.sender.get(),
                       f.receiver.get(), f.sink.get(), &w.machine);
  }

  constexpr std::size_t kVictim = 5;
  FaultSchedule s;
  s.name = "congestion_collapse";
  // Deepen the storm: the core downlink queue clamps to 4 PDUs for a while,
  // turning the steady overload into a drop frenzy.
  s.Add({.kind = FaultAction::Kind::kSqueezeSwitchQueue,
         .at = At(80),
         .duration = At(120),
         .node = w.core_node(),
         .port = 0,
         .queue_pdus = 4,
         .label = "squeeze-core4"});
  // A 30% loss burst on one sender's own ingress wire: that flow now loses
  // frames both at the wire and in the shared queues.
  s.Add({.kind = FaultAction::Kind::kLossBurst,
         .at = At(250),
         .duration = At(80),
         .link = w.flow(2).ingress,
         .percent = 30,
         .label = "ingress-loss30/flow2"});
  // The axe: one sender dies mid-retransmit, its whole window pinned in the
  // ledger. kNoNode routes MachineFor to the conversations' shared host.
  s.Add({.kind = FaultAction::Kind::kTerminateDomain,
         .at = At(400),
         .domain = "sender" + std::to_string(kVictim),
         .label = "terminate/sender5"});
  cr.Arm(s);
  cr.ScheduleAudit(At(150), "mid-squeeze");
  cr.ScheduleAudit(At(410), "post-terminate");

  // Producer teardown brackets the axe: stop feeding the victim just before
  // (a producer outliving its domain would be a use-after-free, not a
  // fault), and close the receiver half just after — its stashed
  // out-of-order frames hold references a dead peer can never complete, and
  // only an explicit shutdown releases them (§3.3 cleanup only runs for the
  // domain that died).
  w.loop.Schedule(At(399), "stop-victim-producer",
                  [&w] { w.StopProducer(kVictim); });
  w.loop.Schedule(At(401), "shutdown-victim-receiver",
                  [&w] { w.flow(kVictim).receiver->Shutdown(); });

  // Enough traffic that every window stays refilled across the whole fault
  // timeline — a storm needs sustained offered load, not one opening burst.
  const int messages = static_cast<int>(64 / g_scale);
  w.StartProducers(messages, 8 * kPageSize);
  w.loop.Run();

  // Survivors drain fully; the victim ends clean rather than complete.
  bool survivors_drained = true;
  for (std::size_t i = 0; i < w.flow_count(); ++i) {
    const IncastWorld::Flow& f = w.flow(i);
    if (i == kVictim) {
      continue;
    }
    survivors_drained = survivors_drained && f.producer->accepted() == messages &&
                        !f.producer->stalled() && !f.producer->failed();
  }
  const IncastWorld::Flow& victim = w.flow(kVictim);
  const bool victim_clean = victim.ledger->pinned_pdus() == 0 &&
                            victim.receiver->stashed() == 0 &&
                            victim.sender->aborted();
  const bool storm = w.switch_drops() > 0 && w.total_retransmissions() > 0;
  // The axed sender's pinned window must end as aborted journeys; every
  // survivor's journey must close kFree with its retransmit pins balanced.
  const bool ok = survivors_drained && victim_clean && storm &&
                  capture.Journeys(/*allow_open=*/true, /*min_aborts=*/1).ok;
  cr.SetOutcome(
      ok, ok ? "survivors drained through the storm (" +
                   std::to_string(w.switch_drops()) + " drops, " +
                   std::to_string(w.total_retransmissions()) +
                   " retransmissions); the axed sender's ledger reclaimed and "
                   "its receiver shut down with nothing stranded"
             : "expected storm + clean victim teardown + survivor drain");
  CampaignReport rep = cr.Finish();
  capture.WriteTrace();
  return rep;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_scale = 4;
    }
  }
  std::printf("=== Fault-injection campaigns (%s mode) ===\n",
              g_scale > 1 ? "smoke" : "full");

  bool all_passed = true;
  const std::vector<CampaignReport> reports = {
      RunLossBurst(),   RunAckOnlyLoss(),   RunRtoSweep(),
      RunTerminateOriginator(), RunHoarder(), RunServerChurn(),
      RunCongestionCollapse()};
  for (const CampaignReport& r : reports) {
    PrintReport(r);
    r.Write();
    all_passed = all_passed && r.passed();
  }
  std::printf("\n%s\n", all_passed ? "all campaigns passed"
                                   : "CAMPAIGN FAILURES (see above)");
  return all_passed ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main(int argc, char** argv) { return fbufs::bench::Main(argc, argv); }
