// Tests for the discrete-event engine: queue ordering and trace
// determinism, serial-resource accounting, the evented multi-flow testbed
// (several VCIs from several sender hosts into one receiver), and the
// evented deallocation-notice flush.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/topo/testbed.h"
#include "src/sim/event_loop.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

TEST(EventLoop, DispatchesInTimeOrderWithFifoTies) {
  EventLoop loop;
  std::vector<std::string> order;
  loop.Schedule(30, "c", [&] { order.push_back("c"); });
  loop.Schedule(10, "a1", [&] { order.push_back("a1"); });
  loop.Schedule(10, "a2", [&] { order.push_back("a2"); });
  loop.Schedule(20, "b", [&] { order.push_back("b"); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "a2", "b", "c"}));
  EXPECT_EQ(loop.Now(), 30u);
  EXPECT_EQ(loop.events_dispatched(), 4u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, HandlersScheduleMoreWork) {
  EventLoop loop;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) {
      loop.Schedule(loop.Now() + 100, "chain", chain);
    }
  };
  loop.Schedule(0, "chain", chain);
  loop.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(loop.Now(), 400u);
}

TEST(EventLoop, CancelledEventNeverDispatches) {
  EventLoop loop;
  int fired = 0;
  const EventLoop::EventId doomed = loop.Schedule(10, "doomed", [&] { fired += 100; });
  loop.Schedule(20, "survivor", [&] { fired += 1; });
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_TRUE(loop.Cancel(doomed));
  // Cancelled events no longer count as pending, and cancelling twice fails.
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.Cancel(doomed));
  loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.events_dispatched(), 1u);
  EXPECT_EQ(loop.events_cancelled(), 1u);
}

TEST(EventLoop, CancelAfterDispatchOrOfUnknownIdFails) {
  EventLoop loop;
  const EventLoop::EventId id = loop.Schedule(5, "tick", [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));         // already dispatched
  EXPECT_FALSE(loop.Cancel(id + 1000));  // never scheduled
}

TEST(EventLoop, CancelledEventsStayOutOfTraceAndHash) {
  // Two loops schedule the same live events; one also schedules-and-cancels
  // an extra event. Trace and hash must be identical: cancellation leaves no
  // residue in the dispatched record.
  EventLoop clean;
  EventLoop noisy;
  for (EventLoop* loop : {&clean, &noisy}) {
    loop->set_record_trace(true);
    loop->Schedule(10, "a", [] {});
    loop->Schedule(20, "b", [] {});
  }
  noisy.Cancel(noisy.Schedule(15, "ghost", [] {}));
  clean.Run();
  noisy.Run();
  EXPECT_EQ(clean.trace().size(), 2u);
  EXPECT_TRUE(clean.trace() == noisy.trace());
  EXPECT_EQ(clean.trace_hash(), noisy.trace_hash());
}

TEST(EventLoop, IdenticalSchedulesHashIdentically) {
  auto drive = [](EventLoop& loop) {
    loop.set_record_trace(true);
    loop.Schedule(5, "x", [] {});
    loop.Schedule(5, "y", [] {});
    loop.Schedule(17, "z", [] {});
    loop.Run();
  };
  EventLoop a;
  EventLoop b;
  drive(a);
  drive(b);
  EXPECT_EQ(a.trace_hash(), b.trace_hash());
  EXPECT_EQ(a.trace(), b.trace());
  EventLoop c;
  c.Schedule(5, "x", [] {});
  c.Schedule(6, "y", [] {});  // one event shifted: different schedule
  c.Schedule(17, "z", [] {});
  c.Run();
  EXPECT_NE(a.trace_hash(), c.trace_hash());
}

// Dispatch moves each event out of the queue: a handler's closure (for a
// deliver event, the PDU's payload) is never copied.
TEST(EventLoop, DispatchMovesTheHandler) {
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&&) = default;
  };
  EventLoop loop;
  int copies = 0;
  int ran = 0;
  for (SimTime t : {30u, 10u, 20u, 10u, 40u}) {
    loop.Schedule(t, "e", [counter = CopyCounter(&copies), &ran] {
      (void)counter;
      ran++;
    });
  }
  EXPECT_EQ(loop.Run(), 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(copies, 0);
}

TEST(Resource, AcquireIsBusyUntilAlgebra) {
  Resource r("dma");
  // Idle resource: starts at ready.
  EXPECT_EQ(r.Acquire(100, 50), 150u);
  // Busy resource: queues behind the previous acquisition.
  EXPECT_EQ(r.Acquire(120, 30), 180u);
  // Late arrival: starts at ready, leaving an idle gap.
  EXPECT_EQ(r.Acquire(500, 10), 510u);
  EXPECT_EQ(r.busy_until(), 510u);
  EXPECT_EQ(r.busy_ns(), 90u);
  EXPECT_EQ(r.acquisitions(), 3u);
}

TEST(Resource, AccountingWindowResets) {
  Resource r("wire");
  r.Acquire(0, 100);
  r.ResetAccounting(100);
  EXPECT_EQ(r.busy_ns(), 0u);
  r.Acquire(150, 50);
  EXPECT_EQ(r.busy_ns(), 50u);
  // An interval straddling the window start is clipped to it.
  r.ResetAccounting(250);
  r.RecordBusy(200, 300);
  EXPECT_EQ(r.busy_ns(), 50u);
}

TEST(MultiFlow, ThreeVcisDeliverEverythingDeterministically) {
  TestbedConfig cfg;
  cfg.placement = StackPlacement::kUserKernel;
  Testbed tb(cfg);
  ASSERT_EQ(tb.AddFlow(43, 2001), 1u);
  ASSERT_EQ(tb.AddFlow(44, 2002), 2u);
  ASSERT_EQ(tb.flow_count(), 3u);

  constexpr std::uint64_t kMessages = 8;
  constexpr std::uint64_t kBytes = 64 * 1024;
  std::vector<FlowTraffic> traffic(3);
  for (auto& t : traffic) {
    t.messages = kMessages;
    t.bytes = kBytes;
    t.warmup = 2;
  }
  const MultiResult mr = tb.RunFlows(traffic);
  ASSERT_FALSE(mr.failed);

  double sum_mbps = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(mr.flows[i].failed) << "flow " << i;
    EXPECT_GT(mr.flows[i].throughput_mbps, 0.0) << "flow " << i;
    // Every message (warmup included) reached the flow's own sink intact.
    EXPECT_EQ(tb.flow_sink(i).received(), kMessages + 2) << "flow " << i;
    EXPECT_EQ(tb.flow_sink(i).bytes_received(), (kMessages + 2) * kBytes)
        << "flow " << i;
    sum_mbps += mr.flows[i].throughput_mbps;
  }
  // Three flows share one TurboChannel into the receiver: their goodput
  // cannot exceed the paper's ~285 Mbps I/O ceiling (DMA bound).
  EXPECT_LT(sum_mbps, 290.0);

  // Per-resource utilization is reported: 3 sender CPUs + 3 TX DMAs + wire
  // + RX DMA + receiver CPU, each within [0, 1].
  ASSERT_EQ(mr.resources.size(), 9u);
  bool saw_wire = false;
  for (const auto& r : mr.resources) {
    EXPECT_GE(r.utilization, 0.0) << r.name;
    EXPECT_LE(r.utilization, 1.0) << r.name;
    if (r.name == "wire") {
      saw_wire = true;
      EXPECT_GT(r.busy_ns, 0u);
    }
  }
  EXPECT_TRUE(saw_wire);
}

TEST(MultiFlow, SameSeedRunsAreByteIdentical) {
  auto run = [](std::vector<EventLoop::TraceEntry>* trace, std::uint64_t* hash,
                std::string* stats, MultiResult* mr) {
    TestbedConfig cfg;
    cfg.placement = StackPlacement::kUserKernel;
    Testbed tb(cfg);
    tb.AddFlow(43, 2001);
    tb.AddFlow(44, 2002);
    tb.loop().set_record_trace(true);
    std::vector<FlowTraffic> traffic(3);
    for (std::size_t i = 0; i < 3; ++i) {
      traffic[i].messages = 6;
      traffic[i].bytes = (i + 1) * 16 * 1024;  // asymmetric load
      traffic[i].warmup = 1;
    }
    *mr = tb.RunFlows(traffic);
    *trace = tb.loop().trace();
    *hash = tb.loop().trace_hash();
    *stats = tb.receiver().machine.stats().ToString();
  };

  std::vector<EventLoop::TraceEntry> trace_a, trace_b;
  std::uint64_t hash_a = 0, hash_b = 0;
  std::string stats_a, stats_b;
  MultiResult mr_a, mr_b;
  run(&trace_a, &hash_a, &stats_a, &mr_a);
  run(&trace_b, &hash_b, &stats_b, &mr_b);

  // The event schedule itself is reproducible...
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(hash_a, hash_b);
  // ...and so is everything derived from it.
  EXPECT_EQ(stats_a, stats_b);
  ASSERT_EQ(mr_a.flows.size(), mr_b.flows.size());
  for (std::size_t i = 0; i < mr_a.flows.size(); ++i) {
    EXPECT_EQ(mr_a.flows[i].elapsed_ns, mr_b.flows[i].elapsed_ns);
    EXPECT_EQ(mr_a.flows[i].throughput_mbps, mr_b.flows[i].throughput_mbps);
  }
  EXPECT_EQ(mr_a.elapsed_ns, mr_b.elapsed_ns);
}

TEST(MultiFlow, LegacySingleFlowRunStillWorks) {
  TestbedConfig cfg;
  cfg.placement = StackPlacement::kUserKernel;
  Testbed tb(cfg);
  const Testbed::Result r = tb.Run(8, 32 * 1024, /*warmup=*/2);
  EXPECT_GT(r.throughput_mbps, 0.0);
  EXPECT_GT(r.sender_cpu_load, 0.0);
  EXPECT_GT(r.receiver_cpu_load, 0.0);
  EXPECT_EQ(tb.receiver().sink->received(), 10u);
}

TEST(FbufSystemEvented, ThresholdFlushBecomesAScheduledEvent) {
  FbufConfig fcfg;
  fcfg.notice_threshold = 4;
  World w(ZeroCostConfig(), fcfg);
  EventLoop loop;
  w.fsys.AttachEventLoop(&loop);
  Domain* s = w.AddDomain("s");
  Domain* d = w.AddDomain("d");
  const PathId p = w.fsys.paths().Register({s->id(), d->id()});
  for (int i = 0; i < 4; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*s, p, kPageSize, true, &fb), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *s, *d), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *s), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *d), Status::kOk);
  }
  // The threshold was hit, but with a loop attached the explicit message is
  // an event, not a synchronous side effect of Free.
  EXPECT_EQ(w.machine.stats().dealloc_messages, 0u);
  EXPECT_EQ(w.fsys.PendingNotices(d->id(), s->id()), 4u);
  EXPECT_FALSE(loop.empty());
  loop.Run();
  EXPECT_EQ(w.machine.stats().dealloc_messages, 1u);
  EXPECT_EQ(w.fsys.PendingNotices(d->id(), s->id()), 0u);
}

}  // namespace
}  // namespace fbufs
