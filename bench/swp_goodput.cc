// Extension bench: SWP goodput vs frame-loss rate.
//
// Reliable transport built on fbufs retransmits from retained references —
// zero copies regardless of loss. This bench reports goodput degradation
// and the retransmission amplification as the channel worsens.
//
// Each sweep point builds one SwpWorld (src/fault/swp_world.h): SWP over
// two lossy channels on one machine. Retransmission is driven by the
// discrete-event engine: every transmit arms a real 2 ms retransmission
// timeout on the EventLoop, and the world's FlowDriver keeps the window
// full, parking on a backoff that starts at one RTO and doubles to a 16 ms
// cap. Quiescence of the loop is the end of the experiment.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/capture.h"
#include "src/fault/swp_world.h"

namespace fbufs {
namespace bench {
namespace {

constexpr SimTime kRto = 2 * kMillisecond;

struct RunResult {
  double goodput_mbps;
  double retx_per_msg;
  std::uint64_t timer_fires;
  std::uint64_t bytes_copied;
};

RunResult Run(std::uint32_t drop_percent, Json* attr_json = nullptr,
              Json* metrics_json = nullptr) {
  SwpWorldConfig cfg;
  cfg.rto = kRto;
  cfg.fwd_loss = drop_percent;
  cfg.rev_loss = drop_percent;
  SwpWorld w(cfg);
  RunCapture capture("swp_goodput");
  capture.Watch(w.machine, {.metrics = true});

  constexpr int kMessages = 64;
  constexpr std::uint64_t kBytes = 32 * 1024;
  const SimTime t0 = w.machine.clock().Now();
  w.StartProducer(kMessages, kBytes);
  // Quiescence: producer done, every frame acknowledged, timer gone quiet.
  w.loop.Run();

  const double seconds = (w.machine.clock().Now() - t0) / 1e9;
  if (attr_json != nullptr) {
    *attr_json = TimeAttributionJson(w.machine);
  }
  if (metrics_json != nullptr) {
    *metrics_json = capture.metrics().ToJson();
  }
  return RunResult{w.sink.bytes_received() * 8.0 / seconds / 1e6,
                   static_cast<double>(w.sender.retransmissions()) / kMessages,
                   w.sender.timer_fires(), w.machine.stats().bytes_copied};
}

int Main() {
  std::printf("\n=== SWP (sliding window) goodput vs loss — fbuf retention extension ===\n");
  std::printf("(64 x 32 KB messages, window 8, 2 ms event-driven retransmission timeout)\n\n");
  std::printf("%8s %14s %14s %14s %14s\n", "loss-%", "goodput-Mbps", "retx/msg",
              "timer-fires", "bytes-copied");
  JsonReport report("swp_goodput");
  Json attr_json;
  Json metrics_json;
  for (const std::uint32_t loss : {0u, 5u, 10u, 20u, 40u, 60u}) {
    // The last sweep point's attribution (60% loss: retransmission-heavy)
    // lands in the report; every point is conservation-checked.
    const RunResult r = Run(loss, &attr_json, &metrics_json);
    std::printf("%8u %14.1f %14.2f %14llu %14llu\n", loss, r.goodput_mbps, r.retx_per_msg,
                static_cast<unsigned long long>(r.timer_fires),
                static_cast<unsigned long long>(r.bytes_copied));
    report.BeginRow()
        .Field("loss_percent", static_cast<double>(loss))
        .Field("goodput_mbps", r.goodput_mbps)
        .Field("retx_per_msg", r.retx_per_msg)
        .Field("timer_fires", static_cast<double>(r.timer_fires))
        .Field("bytes_copied", static_cast<double>(r.bytes_copied));
  }
  report.Section("time_attribution", std::move(attr_json));
  report.Section("metrics", std::move(metrics_json));
  report.Write();
  std::printf(
      "\nreading: retransmissions grow with loss, yet bytes-copied stays zero — the\n"
      "sender retransmits from retained immutable fbufs (copy semantics, §2.1.3).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
