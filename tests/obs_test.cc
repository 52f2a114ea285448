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

// The three totals a report prints — by layer, by path and by CPU lane —
// each sum to total(): the same conservation tools/validate_traces.py
// checks on every exported time_attribution section.
void ExpectSplitsSumToTotal(const Attribution& a, std::uint32_t cpus = 1) {
  SimTime by_layer = 0;
  for (int i = 0; i < static_cast<int>(CostDomain::kCount); ++i) {
    by_layer += a.ByLayer(static_cast<CostDomain>(i));
  }
  SimTime by_path = 0;
  for (const auto& [p, ns] : a.by_path()) {
    EXPECT_NE(ns, 0u) << "path " << p;
    by_path += ns;
  }
  SimTime by_cpu = 0;
  for (std::uint32_t c = 0; c < cpus; ++c) {
    by_cpu += a.ByCpu(c);
  }
  EXPECT_EQ(by_layer, a.total());
  EXPECT_EQ(by_path, a.total());
  EXPECT_EQ(by_cpu, a.total());
}

void ExpectConserved(Machine& m) {
  const Attribution& a = m.attribution();
  EXPECT_EQ(a.total(), m.clock().Now());
  ExpectSplitsSumToTotal(a);
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
  ExpectSplitsSumToTotal(w.machine.attribution());
  EXPECT_TRUE(w.machine.attribution().by_path().empty());
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

TEST(Attribution, PathScopeTagsCharges) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  {
    PathScope path(attr, 7);
    LayerScope layer(attr, CostDomain::kFbuf);
    clock.Advance(11);
  }
  EXPECT_EQ(attr.by_path().at(7), 11u);
  // Scope restored: further charges land elsewhere.
  clock.Advance(2);
  EXPECT_EQ(attr.by_path().at(7), 11u);
  EXPECT_EQ(attr.by_path().at(kAttrNoPath), 2u);
}

// A path edge only drops the cached per-path total; the total is looked up
// when a charge lands. Every context change must steer the next work and
// wait charge to its own layer, path and cpu totals, whether or not
// anything was charged since the previous change, and paths no charge
// reached must have no entry.
TEST(Attribution, CellsFollowContextChangesWithoutCharges) {
  SimClock clock;
  Attribution attr;
  clock.SetChargeHook(&Attribution::ClockHook, &attr);
  std::map<CostDomain, SimTime> want_layer;
  std::map<AttrPathId, SimTime> want_path;
  std::map<std::uint32_t, SimTime> want_cpu;
  auto book = [&](CostDomain layer, AttrPathId p, std::uint32_t cpu, SimTime ns) {
    want_layer[layer] += ns;
    want_path[p] += ns;
    want_cpu[cpu] += ns;
  };
  auto work = [&](CostDomain layer, AttrPathId p, std::uint32_t cpu, SimTime ns) {
    clock.Advance(ns);
    book(layer, p, cpu, ns);
  };
  auto wait = [&](AttrPathId p, std::uint32_t cpu, SimTime ns) {
    clock.AdvanceTo(clock.Now() + ns);
    book(CostDomain::kWait, p, cpu, ns);
  };
  // Resolve the initial path total, then charge it again from the cache.
  work(CostDomain::kOther, kAttrNoPath, 0, 1);
  wait(kAttrNoPath, 0, 2);
  wait(kAttrNoPath, 0, 4);
  work(CostDomain::kOther, kAttrNoPath, 0, 5);
  {
    PathScope path(attr, 7);
    wait(7, 0, 6);
    LayerScope layer(attr, CostDomain::kFbuf);
    work(CostDomain::kFbuf, 7, 0, 8);
    wait(7, 0, 9);  // a layer change does not move waits
    attr.SetCpu(2);
    wait(7, 2, 10);
    work(CostDomain::kFbuf, 7, 2, 11);
    {
      // Three changes with no charge between them: only the last context counts.
      PathScope path2(attr, 8);
      attr.SetCpu(1);
      LayerScope layer2(attr, CostDomain::kVm);
      work(CostDomain::kVm, 8, 1, 12);
      wait(8, 1, 13);
    }
    // The path is restored by its scope; the cpu lane is not scoped.
    wait(7, 1, 14);
    work(CostDomain::kFbuf, 7, 1, 15);
    {
      // A path set and restored with no charge in between reaches no total.
      PathScope unused(attr, 9);
    }
    work(CostDomain::kFbuf, 7, 1, 3);
    attr.SetCpu(0);
  }
  work(CostDomain::kOther, kAttrNoPath, 0, 16);
  wait(kAttrNoPath, 0, 17);

  EXPECT_EQ(attr.total(), clock.Now());
  ExpectSplitsSumToTotal(attr, 3);
  for (int i = 0; i < static_cast<int>(CostDomain::kCount); ++i) {
    const CostDomain d = static_cast<CostDomain>(i);
    EXPECT_EQ(attr.ByLayer(d), want_layer[d]) << CostDomainName(d);
  }
  EXPECT_EQ(attr.by_path(), want_path);
  for (const auto& [cpu, ns] : want_cpu) {
    EXPECT_EQ(attr.ByCpu(cpu), ns) << "cpu " << cpu;
  }
  EXPECT_EQ(attr.ByCpu(3), 0u);
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
