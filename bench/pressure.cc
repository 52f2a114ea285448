// Memory-pressure sweep: goodput vs pool size and hoarded share, with the
// pressure subsystem (quotas, sweeps, backpressure, degradation) engaged.
//
// Each sweep point builds a one-machine world: a sender→receiver data path
// driven through a DegradablePath, a PressureManager on the event loop, and
// a "hoarder" domain that pins physical frames until only |headroom| remain
// free. The sender paces itself at the machine cost model's service time,
// retains each PDU's fbuf for a fixed hold window (a retransmission buffer /
// slow consumer stand-in), parks on a capped-exponential backoff when the
// pool pushes back, and degrades to the copy path when pressure persists.
//
// The point of the sweep is the *shape* of the goodput curve: it must fall
// smoothly as the hoarder squeezes the pool — pool-limited first, then
// copy-limited — and never to zero (no cliff). The bench self-checks that
// shape, the degraded-regime markers (degraded_pdus > 0, bytes_copied > 0
// at the tightest points), and the §3.3 invariants after every point, and
// exits nonzero when any check fails. Everything is deterministic: the same
// build produces byte-identical BENCH_pressure.json on every run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/capture.h"
#include "src/baseline/copy_transfer.h"
#include "src/fault/auditor.h"
#include "src/pressure/backoff.h"
#include "src/pressure/degradable.h"
#include "src/pressure/pressure.h"
#include "src/sim/event_loop.h"

namespace fbufs {
namespace bench {
namespace {

constexpr std::uint64_t kPduPages = 4;
constexpr std::uint64_t kPduBytes = kPduPages * kPageSize;
// Sender-side retention window: how long each PDU's frames stay pinned.
constexpr SimTime kHold = 4 * kMillisecond;

struct PointResult {
  std::uint64_t pool_frames = 0;
  std::uint64_t headroom = 0;  // free frames left after the hoarder; 0 = no hoarder
  std::uint64_t hoarded_frames = 0;
  double goodput_mbps = 0;
  std::uint64_t zero_copy_pdus = 0;
  std::uint64_t degraded_pdus = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t parks = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t pages_reclaimed = 0;
  std::uint64_t degradations = 0;
  std::uint64_t restorations = 0;
  bool stalled = false;
  bool hard_failed = false;
  bool audit_passed = false;
};

// One sweep point: |n| PDUs through a pool of |pool_frames| with the hoarder
// holding everything above |headroom| free frames (0 disables the hoarder).
PointResult RunPoint(std::uint64_t pool_frames, std::uint64_t headroom, std::uint64_t n,
                     Json* attr_json = nullptr,
                     Json* metrics_json = nullptr) {
  PointResult r;
  r.pool_frames = pool_frames;
  r.headroom = headroom;

  MachineConfig mc;
  mc.phys_frames = static_cast<std::uint32_t>(pool_frames);
  Machine machine(mc);
  FbufConfig fcfg;
  fcfg.clear_new_pages = false;
  FbufSystem fsys(&machine, fcfg);
  Rpc rpc(&machine);
  fsys.AttachRpc(&rpc);
  EventLoop loop;
  fsys.AttachEventLoop(&loop);
  RunCapture capture("pressure");
  capture.Watch(machine, {.metrics = true});

  PressureConfig pcfg;
  pcfg.low_free_frames = 16;
  pcfg.high_free_frames = 32;
  pcfg.degrade_after_failures = 3;
  PressureManager pressure(&fsys, pcfg);
  pressure.AttachEventLoop(&loop);

  CopyTransfer copy(&machine);
  Domain* src = machine.CreateDomain("src");
  Domain* dst = machine.CreateDomain("dst");
  Domain* hog = machine.CreateDomain("hoarder");
  const PathId path = fsys.paths().Register({src->id(), dst->id()});
  DegradablePath dp(&fsys, &copy, &pressure, src, dst, path);

  // The hoarder pins frames in chunk-sized uncached fbufs until only
  // |headroom| remain free, modelling a greedy/wedged peer domain.
  std::vector<Fbuf*> hoard;
  while (headroom > 0 && machine.pmem().free_frames() > headroom) {
    const std::uint64_t take = std::min<std::uint64_t>(
        machine.pmem().free_frames() - headroom, fsys.config().chunk_pages);
    Fbuf* fb = nullptr;
    if (!Ok(fsys.Allocate(*hog, kNoPath, take * kPageSize, false, &fb)) ||
        !Ok(hog->TouchRange(fb->base, take * kPageSize, Access::kWrite))) {
      if (fb != nullptr) {
        fsys.Free(fb, *hog);
      }
      break;
    }
    hoard.push_back(fb);
  }
  r.hoarded_frames = static_cast<std::uint64_t>(hoard.size()) == 0
                         ? 0
                         : pool_frames - machine.pmem().free_frames();

  // The producer: send, retain for kHold, pace the next send at this PDU's
  // machine-time service cost; park with capped-exponential backoff on
  // backpressure. The stall watchdog turns a wedged pool into a clean
  // failure instead of an endless retry loop.
  FlowBackoff backoff;
  backoff.policy.initial = kMillisecond / 4;
  backoff.policy.multiplier = 2;
  backoff.policy.cap = 2 * kMillisecond;
  backoff.stall_horizon = 250 * kMillisecond;
  backoff.last_progress = loop.Now();

  std::uint64_t sent = 0;
  SimTime end_time = 0;
  std::function<void()> step = [&] {
    const SimTime m0 = machine.clock().Now();
    Fbuf* retained = nullptr;
    const Status st = dp.SendPdu(kPduBytes, &retained);
    if (Ok(st)) {
      sent++;
      backoff.Progress(loop.Now());
      if (retained != nullptr) {
        Fbuf* fb = retained;
        loop.Schedule(loop.Now() + kHold, "pressure-bench/release",
                      [&fsys, fb, src] { fsys.Free(fb, *src); });
      }
      const SimTime dt = machine.clock().Now() - m0;
      if (sent == n) {
        end_time = loop.Now() + dt;
        return;
      }
      loop.Schedule(loop.Now() + dt, "pressure-bench/next", step);
      return;
    }
    if (!IsBackpressure(st)) {
      r.hard_failed = true;
      return;
    }
    const auto delay = backoff.Park(loop.Now());
    if (!delay.has_value()) {
      r.stalled = true;
      return;
    }
    r.parks++;
    loop.Schedule(loop.Now() + *delay, "pressure-bench/park", step);
  };
  loop.Schedule(loop.Now(), "pressure-bench/start", step);
  loop.Run();

  if (end_time > 0) {
    r.goodput_mbps = static_cast<double>(n * kPduBytes) * 8.0 * 1000.0 /
                     static_cast<double>(end_time);
  }
  r.zero_copy_pdus = dp.zero_copy_pdus();
  r.degraded_pdus = dp.degraded_pdus();
  r.bytes_copied = machine.stats().bytes_copied;
  r.sweeps = pressure.sweeps();
  r.pages_reclaimed = pressure.pages_reclaimed();
  r.degradations = pressure.degradations();
  r.restorations = pressure.restorations();

  // Release the hoard and audit: every frame accounted for, no dangling
  // per-domain mappings, free lists consistent.
  for (Fbuf* fb : hoard) {
    fsys.Free(fb, *hog);
  }
  const HostAuditResult audit = InvariantAuditor::AuditHost("bench", machine, fsys);
  r.audit_passed = audit.passed;
  if (attr_json != nullptr) {
    *attr_json = TimeAttributionJson(machine);
  }
  if (metrics_json != nullptr) {
    *metrics_json = capture.metrics().ToJson();
  }
  return r;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const std::uint64_t n = smoke ? 24 : 64;
  const std::vector<std::uint64_t> pools =
      smoke ? std::vector<std::uint64_t>{1024, 256}
            : std::vector<std::uint64_t>{2048, 1024, 512, 256};
  // headroom 0 = no hoarder; then progressively tighter squeezes. The
  // tightest (12 frames) leaves less than the zero-copy working set but
  // enough for the copy path's bounded staging+landing footprint, so the
  // degraded regime is reachable and survivable.
  const std::vector<std::uint64_t> headrooms = {0, 96, 32, 12};

  PrintHeader("Memory-pressure sweep (pool size x hoarded share)");
  std::printf("%8s %9s %9s %12s %6s %6s %7s %7s %6s %6s %6s\n", "pool", "headroom",
              "hoarded", "goodput", "zc", "deg", "copied", "parks", "sweeps",
              "degr", "rest");

  JsonReport json("pressure");
  Json attr_json;
  Json metrics_json;
  std::vector<PointResult> results;
  for (const std::uint64_t pool : pools) {
    for (const std::uint64_t headroom : headrooms) {
      // The tightest point's breakdown (copy-path degradation visible as
      // baseline/msg time) lands in the report; all conservation-checked.
      const PointResult r = RunPoint(pool, headroom, n, &attr_json, &metrics_json);
      results.push_back(r);
      std::printf("%8llu %9llu %9llu %9.1f Mb %6llu %6llu %7llu %7llu %6llu %6llu %6llu%s%s%s\n",
                  static_cast<unsigned long long>(r.pool_frames),
                  static_cast<unsigned long long>(r.headroom),
                  static_cast<unsigned long long>(r.hoarded_frames), r.goodput_mbps,
                  static_cast<unsigned long long>(r.zero_copy_pdus),
                  static_cast<unsigned long long>(r.degraded_pdus),
                  static_cast<unsigned long long>(r.bytes_copied),
                  static_cast<unsigned long long>(r.parks),
                  static_cast<unsigned long long>(r.sweeps),
                  static_cast<unsigned long long>(r.degradations),
                  static_cast<unsigned long long>(r.restorations),
                  r.stalled ? "  STALLED" : "", r.hard_failed ? "  FAILED" : "",
                  r.audit_passed ? "" : "  AUDIT-VIOLATIONS");
      json.BeginRow()
          .Field("pool_frames", static_cast<double>(r.pool_frames))
          .Field("headroom", static_cast<double>(r.headroom))
          .Field("hoarded_frames", static_cast<double>(r.hoarded_frames))
          .Field("goodput_mbps", r.goodput_mbps)
          .Field("zero_copy_pdus", static_cast<double>(r.zero_copy_pdus))
          .Field("degraded_pdus", static_cast<double>(r.degraded_pdus))
          .Field("bytes_copied", static_cast<double>(r.bytes_copied))
          .Field("backpressure_parks", static_cast<double>(r.parks))
          .Field("pressure_sweeps", static_cast<double>(r.sweeps))
          .Field("pages_reclaimed", static_cast<double>(r.pages_reclaimed))
          .Field("degradations", static_cast<double>(r.degradations))
          .Field("restorations", static_cast<double>(r.restorations))
          .Field("stalled", r.stalled ? 1.0 : 0.0)
          .Field("audit_passed", r.audit_passed ? 1.0 : 0.0);
    }
  }
  json.Section("time_attribution", std::move(attr_json));
  json.Section("metrics", std::move(metrics_json));
  json.Write();

  // --- Self-checks: the degradation must be graceful --------------------------
  bool ok = true;
  auto fail = [&ok](const std::string& why) {
    std::printf("SELF-CHECK FAILED: %s\n", why.c_str());
    ok = false;
  };

  double max_goodput = 0;
  double min_goodput = 0;
  for (const PointResult& r : results) {
    if (r.stalled || r.hard_failed) {
      fail("point stalled or hard-failed (pool=" + std::to_string(r.pool_frames) +
           " headroom=" + std::to_string(r.headroom) + ")");
    }
    if (!r.audit_passed) {
      fail("post-run invariant audit failed (pool=" + std::to_string(r.pool_frames) +
           " headroom=" + std::to_string(r.headroom) + ")");
    }
    if (r.goodput_mbps <= 0) {
      fail("zero goodput (pool=" + std::to_string(r.pool_frames) +
           " headroom=" + std::to_string(r.headroom) + ")");
    }
    max_goodput = std::max(max_goodput, r.goodput_mbps);
    min_goodput = min_goodput == 0 ? r.goodput_mbps : std::min(min_goodput, r.goodput_mbps);
  }

  // Within each pool size, goodput must fall (within tolerance) as the
  // hoarder tightens — monotone degradation, not a step off a cliff.
  const std::size_t per_pool = headrooms.size();
  for (std::size_t p = 0; p < pools.size(); ++p) {
    for (std::size_t h = 1; h < per_pool; ++h) {
      const PointResult& loose = results[p * per_pool + h - 1];
      const PointResult& tight = results[p * per_pool + h];
      if (tight.goodput_mbps > loose.goodput_mbps * 1.15) {
        fail("goodput rose under tighter pressure (pool=" +
             std::to_string(pools[p]) + " headroom " +
             std::to_string(loose.headroom) + " -> " +
             std::to_string(tight.headroom) + ")");
      }
    }
    // Degraded-regime markers at the tightest squeeze: the copy fallback
    // carried real traffic.
    const PointResult& tightest = results[p * per_pool + per_pool - 1];
    if (tightest.degraded_pdus == 0 || tightest.bytes_copied == 0) {
      fail("tightest point never degraded to the copy path (pool=" +
           std::to_string(pools[p]) + ")");
    }
  }

  // No cliff: even the most squeezed point retains a usable fraction of the
  // unpressured goodput (the copy path's floor).
  if (max_goodput > 0 && min_goodput < max_goodput / 400.0) {
    fail("goodput cliff: min " + std::to_string(min_goodput) + " vs max " +
         std::to_string(max_goodput));
  }

  std::printf("\n%s\n", ok ? "pressure sweep self-checks passed"
                           : "PRESSURE SWEEP SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main(int argc, char** argv) { return fbufs::bench::Main(argc, argv); }
