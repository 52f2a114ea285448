// Multicore machine tests: CPU lanes, evented dispatch queues, RSS
// steering, fbuf free lists shared across lanes, per-lane attribution
// conservation, and determinism of the multicore schedule.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/fbuf/fbuf_system.h"
#include "src/ipc/dispatch.h"
#include "src/ipc/rpc.h"
#include "src/obs/trace_export.h"
#include "src/sim/dispatch.h"
#include "src/topo/topo_config.h"
#include "src/vm/machine.h"

namespace fbufs {
namespace {

MachineConfig Multicore(std::uint32_t cpus) {
  MachineConfig cfg;
  cfg.num_cpus = cpus;
  return cfg;
}

// --- sim layer: CpuLane + DispatchQueue --------------------------------------

TEST(CpuLane, LanesHaveIndependentClocks) {
  Machine m(Multicore(2));
  EXPECT_EQ(m.num_cpus(), 2u);
  m.cpu_clock(0).Advance(100);
  EXPECT_EQ(m.cpu_clock(0).Now(), 100u);
  EXPECT_EQ(m.cpu_clock(1).Now(), 0u);
  // The machine clock follows the active lane.
  EXPECT_EQ(m.clock().Now(), 100u);
  m.SetActiveCpu(1);
  EXPECT_EQ(m.clock().Now(), 0u);
  m.SetActiveCpu(0);
}

TEST(DispatchQueue, SecondItemWaitsForTheLane) {
  EventLoop loop;
  CpuLane lane("lane", 0);
  DispatchQueue q(&loop, &lane, "q");
  std::vector<SimTime> done_at;
  // Both items are ready at t=0; each takes 1000 ns of lane time. The
  // second can only start when the lane frees, so its queueing delay is
  // exactly the first item's service time.
  for (int i = 0; i < 2; ++i) {
    q.Enqueue(0, "item", [&] { lane.clock().Advance(1000); },
              [&](SimTime t) { done_at.push_back(t); });
  }
  loop.Run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 1000u);
  EXPECT_EQ(done_at[1], 2000u);
  EXPECT_EQ(q.total_wait_ns(), 1000u);
  EXPECT_EQ(q.max_wait_ns(), 1000u);
  EXPECT_EQ(q.completed(), 2u);
  EXPECT_EQ(lane.busy_ns(), 2000u);
}

TEST(DispatchQueue, ReadyTimeIsHonored) {
  EventLoop loop;
  CpuLane lane("lane", 0);
  DispatchQueue q(&loop, &lane, "q");
  SimTime started = 0;
  q.Enqueue(500, "late", [&] { started = lane.clock().Now(); });
  loop.Run();
  // The lane idles until the item's ready time; no wait is recorded.
  EXPECT_EQ(started, 500u);
  EXPECT_EQ(q.total_wait_ns(), 0u);
}

// --- ScheduleOn: the one way to wake a host ----------------------------------

// Per-lane conservation: everything each lane's clock accumulated, waits
// included, is attributed to that lane.
void ExpectLanesConserved(const Machine& m) {
  for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
    EXPECT_EQ(m.attribution().ByCpu(c), m.cpu_clock(c).Now()) << "lane " << c;
  }
}

TEST(ScheduleOn, WakesItsLaneAtItsTimeAndRestoresTheActiveLane) {
  Machine m(Multicore(2));
  EventLoop loop;
  m.cpu_clock(0).Advance(100);
  bool ran = false;
  ScheduleOn(loop, m, 1, 500, "wake", [&] {
    ran = true;
    EXPECT_EQ(m.active_cpu(), 1u);
    EXPECT_EQ(m.clock().Now(), 500u);
    m.clock().Advance(50);  // the handler's work lands on lane 1 too
  });
  loop.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.Now(), 500u);
  EXPECT_EQ(m.active_cpu(), 0u);
  EXPECT_EQ(m.cpu_clock(0).Now(), 100u);
  EXPECT_EQ(m.cpu_clock(1).Now(), 550u);
  // The 500 ns wait was charged on lane 1, inside the lane switch.
  ExpectLanesConserved(m);
  EXPECT_EQ(m.attribution().ByLayer(CostDomain::kWait), 500u);
}

TEST(ScheduleOn, BehindTheFloorDispatchesAtTheFloorButAdvancesOnlyToT) {
  Machine m(Multicore(2));
  EventLoop loop;
  loop.Schedule(1000, "floor", [] {});
  loop.Run();
  SimTime dispatched_at = 0;
  SimTime lane_at = 0;
  ScheduleOn(loop, m, 1, 300, "late", [&] {
    dispatched_at = loop.Now();
    lane_at = m.clock().Now();
  });
  loop.Run();
  EXPECT_EQ(dispatched_at, 1000u);
  EXPECT_EQ(lane_at, 300u);
  EXPECT_EQ(m.cpu_clock(0).Now(), 0u);
  ExpectLanesConserved(m);
}

TEST(ScheduleOn, ALaneAlreadyPastTDoesNotMove) {
  Machine m(Multicore(2));
  EventLoop loop;
  {
    CpuScope busy(m, 1);
    m.clock().Advance(800);
  }
  SimTime lane_at = 0;
  ScheduleOn(loop, m, 1, 500, "early", [&] { lane_at = m.clock().Now(); });
  loop.Run();
  EXPECT_EQ(lane_at, 800u);
  EXPECT_EQ(m.cpu_clock(1).Now(), 800u);
  EXPECT_EQ(m.attribution().ByLayer(CostDomain::kWait), 0u);
  ExpectLanesConserved(m);
}

TEST(RssSteer, DeterministicAndInRange) {
  for (std::uint32_t lanes : {1u, 2u, 4u, 7u}) {
    for (std::uint32_t vci = 0; vci < 64; ++vci) {
      const std::uint32_t a = RssSteer(vci, lanes);
      EXPECT_LT(a, lanes == 0 ? 1u : lanes);
      EXPECT_EQ(a, RssSteer(vci, lanes));
    }
  }
  // Single lane (and the degenerate zero) always steer to 0.
  EXPECT_EQ(RssSteer(12345, 1), 0u);
  EXPECT_EQ(RssSteer(12345, 0), 0u);
  // Multiple lanes actually spread distinct keys.
  bool spread = false;
  for (std::uint32_t vci = 0; vci < 16 && !spread; ++vci) {
    spread = RssSteer(vci, 4) != RssSteer(vci + 1, 4);
  }
  EXPECT_TRUE(spread);
}

// BuildTopology hands out consecutive VCIs from kBaseVci (42), one
// per flow: N such flows on N lanes must each get a lane of their own.
TEST(RssSteer, ConsecutiveKeysFillEveryLane) {
  for (std::uint32_t lanes : {2u, 4u}) {
    std::set<std::uint32_t> used;
    for (std::uint32_t vci = kBaseVci; vci < kBaseVci + lanes; ++vci) {
      used.insert(RssSteer(vci, lanes));
    }
    EXPECT_EQ(used.size(), lanes) << lanes << " lanes";
  }
}

// --- ipc layer: the dispatcher -----------------------------------------------

TEST(Dispatcher, CpuQueueSerializesItsLane) {
  Machine m(Multicore(2));
  EventLoop loop;
  Dispatcher disp(&m, &loop);
  // Lane 1, away from the active lane 0: every charge must land there.
  const std::uint32_t cpu = 1;
  ASSERT_NE(cpu, m.active_cpu());
  std::vector<int> order;
  SimTime finish = 0;
  for (int i = 0; i < 3; ++i) {
    disp.RunOnCpu(
        cpu, 0, "w" + std::to_string(i),
        [&, i] {
          order.push_back(i);
          m.clock().Advance(100);
        },
        [&](SimTime t) { finish = t; });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Three items of 100 ns each, plus the modeled dispatch cost per item.
  const SimTime item = 100 + m.costs().dispatch_ns;
  EXPECT_EQ(m.cpu_clock(cpu).Now(), 3 * item);
  EXPECT_EQ(m.cpu_clock(m.active_cpu()).Now(), 0u);
  EXPECT_EQ(finish, m.cpu_clock(cpu).Now());
  // All three were ready at 0: the second waited one item, the third two.
  EXPECT_EQ(disp.QueueForCpu(cpu).total_wait_ns(), 3 * item);
  EXPECT_EQ(disp.TotalWaitNs(), disp.QueueForCpu(cpu).total_wait_ns());
}

// --- fbuf layer: one free list per path, shared by every lane ----------------

// RSS pins each flow's paths to one lane, so a per-lane cache would hand out
// exactly the fbufs the path's one LIFO list does. An fbuf freed on any lane
// is the next one its path reuses, from whichever lane allocates.
TEST(SharedFreeLists, LaneZeroReusesWhatLaneOneFreed) {
  Machine m(Multicore(2));
  FbufSystem fsys(&m);
  Rpc rpc(&m);
  fsys.AttachRpc(&rpc);
  Domain* src = m.CreateDomain("src");
  Domain* dst = m.CreateDomain("dst");
  const PathId path = fsys.paths().Register({src->id(), dst->id()});

  // Allocate and free on lane 1...
  m.SetActiveCpu(1);
  Fbuf* fb = nullptr;
  ASSERT_EQ(fsys.Allocate(*src, path, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(fsys.Free(fb, *src), Status::kOk);
  // ...and lane 0 reuses that fbuf instead of carving a fresh one.
  m.SetActiveCpu(0);
  Fbuf* again = nullptr;
  ASSERT_EQ(fsys.Allocate(*src, path, kPageSize, true, &again), Status::kOk);
  EXPECT_EQ(again, fb);
  ASSERT_EQ(fsys.Free(again, *src), Status::kOk);

  const FbufSystem::AuditCounts audit = fsys.Audit();
  EXPECT_EQ(audit.free_listed_fbufs, 1u);
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.orphaned_live_fbufs, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
  EXPECT_EQ(fsys.FreeListSize(src->id(), path), 1u);
}

// A single-CPU machine reuses from the same per-path list. The suite keeps
// the name it had when multi-CPU machines also kept one free list per lane.
TEST(PerCpuFreeLists, SingleCpuKeepsSharedListOnly) {
  Machine m{MachineConfig{}};
  FbufSystem fsys(&m);
  Rpc rpc(&m);
  fsys.AttachRpc(&rpc);
  Domain* src = m.CreateDomain("src");
  Domain* dst = m.CreateDomain("dst");
  const PathId path = fsys.paths().Register({src->id(), dst->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(fsys.Allocate(*src, path, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(fsys.Free(fb, *src), Status::kOk);
  Fbuf* again = nullptr;
  ASSERT_EQ(fsys.Allocate(*src, path, kPageSize, true, &again), Status::kOk);
  EXPECT_EQ(again, fb);
  ASSERT_EQ(fsys.Free(again, *src), Status::kOk);
  EXPECT_EQ(fsys.FreeListSize(src->id(), path), 1u);
}

// --- topo layer: multicore runs ----------------------------------------------

struct RunSummary {
  double goodput = 0;
  SimTime attr_total = 0;
  std::vector<SimTime> lane_clock;
  std::vector<SimTime> lane_attr;
  SimTime dispatch_wait = 0;
  std::string trace_json;
};

RunSummary RunFanIn(std::size_t flows, std::uint32_t cpus, bool capture_trace) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = flows;
  cfg.host.pdu_size = 2 * 1024;
  cfg.host.machine.num_cpus = cpus;
  cfg.sender_link_mbps = 622.0;
  cfg.switch_port.mbps = 2400.0;
  cfg.switch_port.queue_pdus = 256;
  cfg.trunk_mbps = 2400.0;
  BuiltTopology b = BuildTopology(cfg);
  SimHost* rx = b.topo->host(b.receiver_node);
  if (capture_trace) {
    rx->machine.trace().SetCapacity(std::size_t{1} << 14);
    rx->machine.trace().EnableAll();
  }
  std::vector<FlowTraffic> traffic(flows);
  for (FlowTraffic& t : traffic) {
    t.messages = 24;
    t.bytes = 2 * 1024;
    t.warmup = 2;
  }
  const MultiResult mr = b.runner->RunFlows(traffic);
  RunSummary s;
  for (const FlowResult& f : mr.flows) {
    EXPECT_FALSE(f.failed);
    s.goodput += f.goodput_mbps;
  }
  const Attribution& attr = rx->machine.attribution();
  s.attr_total = attr.total();
  for (std::uint32_t c = 0; c < rx->machine.num_cpus(); ++c) {
    s.lane_clock.push_back(rx->machine.cpu_clock(c).Now());
    s.lane_attr.push_back(attr.ByCpu(c));
  }
  if (rx->dispatcher != nullptr) {
    s.dispatch_wait = rx->dispatcher->TotalWaitNs();
  }
  if (capture_trace) {
    TraceExporter ex;
    ex.AddHost(rx->machine.name(), 1, rx->machine.trace());
    s.trace_json = ex.ToJson();
  }
  return s;
}

TEST(MulticoreTopo, PerLaneConservationIsExact) {
  const RunSummary s = RunFanIn(4, 4, /*capture_trace=*/false);
  SimTime lane_sum = 0;
  for (std::size_t c = 0; c < s.lane_clock.size(); ++c) {
    // Per-lane conservation, to the nanosecond: everything a lane's clock
    // accumulated is attributed to that lane, nothing more, nothing less.
    EXPECT_EQ(s.lane_attr[c], s.lane_clock[c]) << "lane " << c;
    lane_sum += s.lane_clock[c];
  }
  EXPECT_EQ(s.attr_total, lane_sum);
}

TEST(MulticoreTopo, SingleCpuConservationUnchanged) {
  const RunSummary s = RunFanIn(2, 1, /*capture_trace=*/false);
  ASSERT_EQ(s.lane_clock.size(), 1u);
  EXPECT_EQ(s.attr_total, s.lane_clock[0]);
  // No dispatcher on a single-CPU run: the synchronous fast path.
  EXPECT_EQ(s.dispatch_wait, 0u);
}

TEST(MulticoreTopo, DeterministicAcrossRuns) {
  const RunSummary a = RunFanIn(4, 2, /*capture_trace=*/true);
  const RunSummary b = RunFanIn(4, 2, /*capture_trace=*/true);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.attr_total, b.attr_total);
  EXPECT_EQ(a.lane_clock, b.lane_clock);
  EXPECT_EQ(a.dispatch_wait, b.dispatch_wait);
  // Byte-identical trace export: same seed, same schedule, same file.
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(MulticoreTopo, GoodputScalesWithCores) {
  // Enough flows to keep every lane fed; the single-lane receiver is CPU
  // bound, so a second lane must raise aggregate goodput.
  const RunSummary one = RunFanIn(4, 1, /*capture_trace=*/false);
  const RunSummary two = RunFanIn(4, 2, /*capture_trace=*/false);
  EXPECT_GT(two.goodput, one.goodput * 1.2);
  // And the evented path actually measured queueing behind the lanes.
  EXPECT_GT(two.dispatch_wait, 0u);
}

TEST(MulticoreTopo, DispatchWaitVisibleUnderContention) {
  // Two flows on two lanes: RSS gives each flow a lane of its own, and a PDU
  // that arrives while its lane is still busy with the flow's earlier work
  // waits in the queue, so the wait is measurable even without sharing.
  const RunSummary s = RunFanIn(2, 2, /*capture_trace=*/false);
  EXPECT_GT(s.dispatch_wait, 0u);
}

}  // namespace
}  // namespace fbufs
