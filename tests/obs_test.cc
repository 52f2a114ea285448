// Tests for the observability layer: time attribution (and its conservation
// invariant), the metrics registry, the JSON writer, and the Chrome-trace
// exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"
#include "src/topo/testbed.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

// Sum of every (layer, actor, path) cell — what conservation compares
// against the host clock.
SimTime CellSum(const Attribution& a) {
  SimTime n = 0;
  for (const auto& [key, ns] : a.cells()) {
    n += ns;
  }
  return n;
}

void ExpectConserved(Machine& m) {
  const Attribution& a = m.attribution();
  EXPECT_EQ(a.total(), m.clock().Now());
  EXPECT_EQ(CellSum(a), a.total());
}

// --- Conservation ------------------------------------------------------------

TEST(Attribution, ConservationHoldsOnCachedEndToEndRun) {
  // Figure-5 configuration: cached/volatile fbufs, user-user placement.
  TestbedConfig cfg;
  cfg.placement = StackPlacement::kUserKernel;
  cfg.pdu_size = 16 * 1024;
  cfg.cached = true;
  cfg.volatile_fbufs = true;
  Testbed tb(cfg);
  tb.Run(16, 64 * 1024, /*warmup=*/2);
  ExpectConserved(tb.sender().machine);
  ExpectConserved(tb.receiver().machine);
  // An end-to-end run exercises every major layer on the sender.
  const Attribution& a = tb.sender().machine.attribution();
  EXPECT_GT(a.ByLayer(CostDomain::kProto), 0u);
  EXPECT_GT(a.ByLayer(CostDomain::kFbuf), 0u);
  EXPECT_GT(a.ByLayer(CostDomain::kVm), 0u);
  EXPECT_GT(a.ByLayer(CostDomain::kNet), 0u);
  // Every charge site is scoped: nothing fell through to kOther.
  EXPECT_EQ(a.ByLayer(CostDomain::kOther), 0u);
}

TEST(Attribution, ConservationHoldsOnUncachedEndToEndRun) {
  // Figure-6 configuration: uncached, non-volatile fbufs.
  TestbedConfig cfg;
  cfg.placement = StackPlacement::kUserKernel;
  cfg.pdu_size = 16 * 1024;
  cfg.cached = false;
  cfg.volatile_fbufs = false;
  Testbed tb(cfg);
  tb.Run(16, 64 * 1024, /*warmup=*/2);
  ExpectConserved(tb.sender().machine);
  ExpectConserved(tb.receiver().machine);
  EXPECT_EQ(tb.sender().machine.attribution().ByLayer(CostDomain::kOther), 0u);
  EXPECT_EQ(tb.receiver().machine.attribution().ByLayer(CostDomain::kOther), 0u);
}

TEST(Attribution, ZeroCostWorldAttributesExactlyZero) {
  // With every cost parameter zeroed the clock never moves, so attribution
  // must account exactly zero — not "roughly nothing".
  World w(ZeroCostConfig());
  Domain* a = w.AddDomain("a");
  Domain* b = w.AddDomain("b");
  const PathId p = w.fsys.paths().Register({a->id(), b->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, 4 * kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(a->TouchRange(fb->base, 4 * kPageSize, Access::kWrite), Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *a, *b), Status::kOk);
  ASSERT_EQ(b->TouchRange(fb->base, 4 * kPageSize, Access::kRead), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *b), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);
  EXPECT_EQ(w.machine.clock().Now(), 0u);
  EXPECT_EQ(w.machine.attribution().total(), 0u);
  EXPECT_EQ(CellSum(w.machine.attribution()), 0u);
}

TEST(Attribution, SnapshotSinceWindowsTheMeasurement) {
  World w{MachineConfig{}};  // real DecStation costs
  Domain* a = w.AddDomain("a");
  Domain* b = w.AddDomain("b");
  const PathId p = w.fsys.paths().Register({a->id(), b->id()});
  Fbuf* warm = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &warm), Status::kOk);
  ASSERT_EQ(w.fsys.Free(warm, *a), Status::kOk);

  const Attribution::Snapshot before = w.machine.attribution().Take();
  const SimTime t0 = w.machine.clock().Now();
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *a, *b), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *b), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);
  const Attribution::Snapshot delta =
      w.machine.attribution().Take().Since(before);

  // The windowed view conserves over the window.
  EXPECT_EQ(delta.total, w.machine.clock().Now() - t0);
  SimTime sum = 0;
  for (const auto& [key, ns] : delta.cells) {
    sum += ns;
  }
  EXPECT_EQ(sum, delta.total);
}

// --- Scoping semantics -------------------------------------------------------

TEST(Attribution, InnermostLayerScopeWins) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    LayerScope outer(attr, CostDomain::kFbuf);
    clock.Advance(10);
    {
      LayerScope inner(attr, CostDomain::kVm);
      clock.Advance(7);
    }
    clock.Advance(5);
  }
  clock.Advance(3);  // unscoped -> kOther
  EXPECT_EQ(attr.ByLayer(CostDomain::kFbuf), 15u);
  EXPECT_EQ(attr.ByLayer(CostDomain::kVm), 7u);
  EXPECT_EQ(attr.ByLayer(CostDomain::kOther), 3u);
  EXPECT_EQ(attr.total(), clock.Now());
}

TEST(Attribution, WaitTimeLandsInWaitLayer) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    LayerScope work(attr, CostDomain::kProto);
    clock.Advance(4);
  }
  clock.AdvanceTo(20);  // event delivery: the host was idle
  EXPECT_EQ(attr.ByLayer(CostDomain::kProto), 4u);
  EXPECT_EQ(attr.ByLayer(CostDomain::kWait), 16u);
  EXPECT_EQ(attr.total(), 20u);
}

TEST(Attribution, ActorAndPathScopesTagCells) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    ActorScope actor(attr, 3);
    PathScope path(attr, 7);
    LayerScope layer(attr, CostDomain::kFbuf);
    clock.Advance(11);
  }
  EXPECT_EQ(attr.ByDomain(3), 11u);
  EXPECT_EQ(attr.ByPath(7), 11u);
  // Scopes restored: further charges land elsewhere.
  clock.Advance(2);
  EXPECT_EQ(attr.ByDomain(3), 11u);
  EXPECT_EQ(attr.ByPath(7), 11u);
}

// Scope edges only drop the cached cell pointers; a cell is resolved when a
// charge lands. Every context change must steer the next work and wait charge
// to its own (layer, domain, path, cpu) cell, whether or not anything was
// charged since the previous change, and cells no charge reached must not exist.
TEST(Attribution, CellsFollowContextChangesWithoutCharges) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  std::map<Attribution::Key, SimTime> want;
  auto work = [&](CostDomain layer, DomainId d, AttrPathId p, std::uint32_t cpu, SimTime ns) {
    clock.Advance(ns);
    want[{layer, d, p, cpu}] += ns;
  };
  auto wait = [&](DomainId d, AttrPathId p, std::uint32_t cpu, SimTime ns) {
    clock.AdvanceTo(clock.Now() + ns);
    want[{CostDomain::kWait, d, p, cpu}] += ns;
  };
  constexpr DomainId kNone = kInvalidDomainId;
  // Resolve both cells of the initial context.
  work(CostDomain::kOther, kNone, kAttrNoPath, 0, 1);
  wait(kNone, kAttrNoPath, 0, 2);
  {
    ActorScope actor(attr, 3);
    wait(3, kAttrNoPath, 0, 4);
    work(CostDomain::kOther, 3, kAttrNoPath, 0, 5);
    PathScope path(attr, 7);
    wait(3, 7, 0, 6);
    LayerScope layer(attr, CostDomain::kFbuf);
    work(CostDomain::kFbuf, 3, 7, 0, 8);
    wait(3, 7, 0, 9);  // a layer change does not move waits
    attr.SetCpu(2);
    wait(3, 7, 2, 10);
    work(CostDomain::kFbuf, 3, 7, 2, 11);
    {
      // Four changes with no charge between them: only the last context counts.
      ActorScope actor2(attr, 5);
      PathScope path2(attr, 8);
      attr.SetCpu(1);
      LayerScope layer2(attr, CostDomain::kVm);
      work(CostDomain::kVm, 5, 8, 1, 12);
      wait(5, 8, 1, 13);
    }
    // Actor and path restored by their scopes; the cpu lane is not scoped.
    wait(3, 7, 1, 14);
    work(CostDomain::kFbuf, 3, 7, 1, 15);
    attr.SetCpu(0);
  }
  work(CostDomain::kOther, kNone, kAttrNoPath, 0, 16);
  wait(kNone, kAttrNoPath, 0, 17);

  EXPECT_EQ(attr.total(), clock.Now());
  EXPECT_EQ(attr.cells().size(), want.size());
  for (const auto& [key, ns] : want) {
    SCOPED_TRACE(std::string(CostDomainName(key.layer)) + " domain " +
                 std::to_string(key.domain) + " path " + std::to_string(key.path) + " cpu " +
                 std::to_string(key.cpu));
    auto it = attr.cells().find(key);
    ASSERT_NE(it, attr.cells().end());
    EXPECT_EQ(it->second, ns);
  }
}

// --- Metrics -----------------------------------------------------------------

TEST(Metrics, HistogramBucketsAndQuantiles) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 100u, 1000u, 100000u}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 101106u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100000u);
  // Half the observations are <= 3, so the p50 bound covers bucket 1.
  EXPECT_LE(h.ApproxQuantile(0.5), 3u);
  EXPECT_GE(h.ApproxQuantile(1.0), 100000u);
}

TEST(Metrics, EmptyHistogramQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.0), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 0u);
}

TEST(Metrics, ApproxQuantileInterpolatesWithinABucket) {
  // All eight observations land in bucket 4 ([16, 31]), so the quantile is
  // pure within-bucket interpolation: q<=0 pins to min, q>=1 pins to max,
  // and q=0.5 sits at target=4 of 8 -> frac 0.5 -> 16 + floor(0.5 * 15).
  Histogram h;
  for (std::uint64_t v : {16u, 18u, 20u, 22u, 24u, 26u, 28u, 31u}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.ApproxQuantile(0.0), 16u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 23u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 31u);
  // The estimate is clamped to the observed range even at the bucket edges.
  EXPECT_GE(h.ApproxQuantile(0.01), h.min());
  EXPECT_LE(h.ApproxQuantile(0.999), h.max());
  // The multi-bucket set from above: p50 interpolates to the top of
  // bucket 1 exactly (target 3 of the 2 values in [2,3] -> frac 1).
  Histogram multi;
  for (std::uint64_t v : {1u, 2u, 3u, 100u, 1000u, 100000u}) {
    multi.Observe(v);
  }
  EXPECT_EQ(multi.ApproxQuantile(0.5), 3u);
}

TEST(Metrics, RegistryPointersAreStableAndJsonDeterministic) {
  auto fill = [](MetricsRegistry& r) {
    Histogram* h = r.GetHistogram("c.lat");
    h->Observe(500);
    r.GetHistogram("b.lat")->Observe(7);
    EXPECT_EQ(h, r.GetHistogram("c.lat"));
    r.GetGauge("a.depth")->Set(-4);
    r.GetGauge("a.depth")->Set(9);
  };
  MetricsRegistry r1;
  MetricsRegistry r2;
  fill(r1);
  fill(r2);
  const std::string j = r1.ToJson().Dump();
  EXPECT_EQ(j, r2.ToJson().Dump());
  EXPECT_NE(j.find("\"b.lat\""), std::string::npos);
  EXPECT_NE(j.find("\"a.depth\""), std::string::npos);
  EXPECT_NE(j.find("\"c.lat\""), std::string::npos);
}

TEST(Metrics, GaugeMaxAndMinAreObservedValues) {
  Gauge g;
  EXPECT_EQ(g.max(), 0);  // no samples
  EXPECT_EQ(g.min(), 0);
  g.Set(-4);
  g.Set(-9);
  EXPECT_EQ(g.value(), -9);
  EXPECT_EQ(g.max(), -4);
  EXPECT_EQ(g.min(), -9);
}

TEST(Json, IntegersPrintExactlyAndDoublesToTenDigits) {
  EXPECT_EQ(Json(UINT64_MAX).Dump(), "18446744073709551615");
  EXPECT_EQ(Json(std::int64_t{-4}).Dump(), "-4");
  EXPECT_EQ(Json(1.0 / 3).Dump(), "0.3333333333");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(false).Dump(), "false");
}

TEST(Json, StringsAreEscaped) {
  EXPECT_EQ(Json("q\"b\\n\nt\tc\x01").Dump(),
            "\"q\\\"b\\\\n\\nt\\tc\\u0001\"");
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
}

TEST(Json, TopTwoDepthsBreakLinesAndDeeperOnesPrintInline) {
  const Json doc = Json::Object{
      {"z", 1},
      {"rows", Json::Array{Json::Object{{"k", 2}, {"j", Json::Array{3, Json::Object{}}}},
                           Json::Array{}}},
      {"empty", Json::Object{}}};
  EXPECT_EQ(doc.Dump(),
            "{\n"
            "  \"z\": 1,\n"
            "  \"rows\": [\n"
            "    {\"k\": 2, \"j\": [3, {}]},\n"
            "    []\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
  EXPECT_EQ(Json(Json::Array{}).Dump(), "[]");
}

TEST(Metrics, FbufAllocLatencyRecordedWhenAttached) {
  World w{MachineConfig{}};
  MetricsRegistry metrics;
  w.machine.AttachMetrics(&metrics);
  Domain* a = w.AddDomain("a");
  const PathId p = w.fsys.paths().Register({a->id()});
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &fb), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);
  EXPECT_EQ(metrics.GetHistogram("fbuf.alloc_latency_ns")->count(), 1u);
}

// --- Trace export ------------------------------------------------------------

// One transfer with tracing on: the fbuf-transfer span must contain the VM
// map-frame spans it drives (emission order brackets properly).
TEST(TraceExport, SpansNestAndExportIsDeterministic) {
  auto run = [](std::string* json) {
    World w{MachineConfig{}};
    w.machine.trace().EnableAll();
    Domain* a = w.AddDomain("a");
    Domain* b = w.AddDomain("b");
    const PathId p = w.fsys.paths().Register({a->id(), b->id()});
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*a, p, kPageSize, true, &fb), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *a, *b), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *b), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *a), Status::kOk);

    // Nesting: transfer Begin ... map-frame Begin/End ... transfer End.
    const std::vector<TraceEvent> events = w.machine.trace().Snapshot();
    int transfer_begin = -1, transfer_end = -1, map_begin = -1, map_end = -1;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& e = events[i];
      const std::string what = e.what;
      if (what == "fbuf-transfer" && e.phase == TracePhase::kBegin) {
        transfer_begin = static_cast<int>(i);
      } else if (what == "fbuf-transfer" && e.phase == TracePhase::kEnd) {
        transfer_end = static_cast<int>(i);
      } else if (what == "map-frame" && e.phase == TracePhase::kBegin &&
                 map_begin < 0 && transfer_begin >= 0) {
        map_begin = static_cast<int>(i);
      } else if (what == "map-frame" && e.phase == TracePhase::kEnd &&
                 map_end < 0 && map_begin >= 0) {
        map_end = static_cast<int>(i);
      }
    }
    ASSERT_GE(transfer_begin, 0);
    ASSERT_GE(map_begin, 0);
    ASSERT_GE(map_end, 0);
    ASSERT_GE(transfer_end, 0);
    EXPECT_LT(transfer_begin, map_begin);
    EXPECT_LT(map_begin, map_end);
    EXPECT_LT(map_end, transfer_end);

    TraceExporter ex;
    ex.AddHost("host", 1, w.machine.trace());
    *json = ex.ToJson();
  };
  std::string j1;
  std::string j2;
  run(&j1);
  run(&j2);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);  // same world, byte-identical export
  EXPECT_NE(j1.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(j1.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(j1.find("fbuf-transfer"), std::string::npos);
}

TEST(TraceExport, PhaseMarkersBecomeInstants) {
  SimClock clock;
  Trace t(&clock);
  t.EnableAll();
  clock.Advance(1500);
  t.Marker(t.Intern("fault/burst"));
  TraceExporter ex;
  ex.AddHost("host", 1, t);
  const std::string j = ex.ToJson();
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("fault/burst"), std::string::npos);
  EXPECT_NE(j.find("\"ts\":1.500"), std::string::npos);  // ns -> us, integer math
}

TEST(TraceExport, ResourceBusyIntervalsBecomeCompleteEvents) {
  Resource r("wire/test");
  r.set_record_intervals(true);
  r.Acquire(/*now=*/100, /*duration=*/50);
  r.Acquire(/*now=*/200, /*duration=*/25);
  TraceExporter ex;
  ex.AddResource(r);
  const std::string j = ex.ToJson();
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("wire/test"), std::string::npos);
  EXPECT_EQ(r.intervals().size(), 2u);
}

TEST(TraceExport, WrappedRingExportsNoEndWithoutItsBegin) {
  SimClock clock;
  Trace t(&clock, /*capacity=*/4);
  t.EnableAll();
  t.Begin(TraceCategory::kFbuf, "span");
  for (int i = 0; i < 5; ++i) {
    clock.Advance(10);
    t.Emit(TraceCategory::kFbuf, "tick");
  }
  t.End(TraceCategory::kFbuf, "span");
  ASSERT_EQ(t.total_emitted(), 7u);
  TraceExporter ex;
  ex.AddHost("host", 1, t);
  const std::string j = ex.ToJson();
  // The ring kept tick 3..5 and the end; the end's begin was overwritten.
  EXPECT_EQ(j.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  // The wrap is recorded where the surviving timeline starts (tick 3).
  EXPECT_NE(j.find("{\"name\":\"trace_wrapped\",\"ph\":\"i\",\"pid\":1,\"tid\":5,"
                   "\"ts\":0.030,\"s\":\"t\",\"cat\":\"phase\","
                   "\"args\":{\"overwritten\":3}}"),
            std::string::npos);
}

TEST(TraceExport, UnwrappedRingExportsEveryEventUnmarked) {
  SimClock clock;
  Trace t(&clock, /*capacity=*/8);
  t.EnableAll();
  {
    TraceSpan span(t, TraceCategory::kFbuf, "span");
    t.Emit(TraceCategory::kFbuf, "tick");
  }
  TraceExporter ex;
  ex.AddHost("host", 1, t);
  const std::string j = ex.ToJson();
  EXPECT_NE(j.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_EQ(j.find("trace_wrapped"), std::string::npos);
}

// Both writers go through WriteTextFile, which checks the flush: /dev/full
// accepts the open and the buffered write, and fails only at fclose.
TEST(TraceExport, WritersReportAFailedFlush) {
  EXPECT_FALSE(WriteJsonFile("/dev/full", Json(Json::Object{{"a", 1}})));
  EXPECT_FALSE(TraceExporter().WriteFile("/dev/full"));
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/file.json", "x"));
}

TEST(TraceExport, RecordingOffKeepsNoIntervals) {
  Resource r("wire/test");
  r.Acquire(/*now=*/100, /*duration=*/50);
  EXPECT_TRUE(r.intervals().empty());
}

}  // namespace
}  // namespace fbufs
