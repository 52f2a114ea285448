// The benchmark runner: runs one workload for a fixed host-time budget and
// prints one JSON report on stdout. run.py builds this binary, calls it, and
// turns the report into the benchmark's result line (NOTES.md).
//
//   perfbench --workload stream|serve|incast --seed N --seconds S
//             [--trace 0|1] [--spans PATH]
//
// Every iteration builds a fresh world from the same seeded inputs, so the
// simulated section must come out identical each time; any difference is a
// nondeterminism failure. Host timings come from the iterations after the
// first: a warmup whose simulated output is still checked and which alone
// carries the fbuf lifecycle tracker (a host-side observer) and its
// reconciliation.
//
// With --trace 1 the run also records spans around each call into the
// simulator (every other iteration, so the traced and untraced medians give
// the tracing overhead) and runs two probes after the timed loop:
//   sim: constructs PhysMem with each machine's frame count (arena set-up);
//   net: replays AtmSegmenter::Segment + AtmReassembler::Push on the run's
//        own PDU sizes.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/net/atm.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/phys_mem.h"
#include "src/sim/stats.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinIterations = 4;  // one warmup + three measured
constexpr std::uint64_t kAtmProbePdusPerGroup = 16;
constexpr int kArenaProbeRepeats = 3;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string Object(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + kv[i].first + "\": " + Num(kv[i].second);
  }
  return out + "}";
}

// Host ms to construct a PhysMem arena of every machine's frame count (each
// released outside the timed span before the next is built); the median of
// kArenaProbeRepeats passes.
double ArenaProbeMs(const std::vector<std::uint32_t>& frames, Tracer& tr) {
  fbufs::SimClock clock;
  const fbufs::CostParams costs = fbufs::CostParams::DecStation5000();
  fbufs::SimStats stats;
  std::vector<double> passes;
  for (int r = 0; r < kArenaProbeRepeats; ++r) {
    double ms = 0;
    for (const std::uint32_t f : frames) {
      std::unique_ptr<fbufs::PhysMem> arena;
      ms += 1e3 * tr.Time("probe/sim/PhysMem", [&] {
        arena = std::make_unique<fbufs::PhysMem>(f, &clock, &costs, &stats);
      });
    }
    passes.push_back(ms);
  }
  return Median(passes);
}

// Host µs per PDU for segmenting into cells and reassembling, replayed on up
// to kAtmProbePdusPerGroup PDUs of each group's mean length and scaled to the
// group's PDU count.
double AtmProbeUsPerPdu(const std::vector<PduGroup>& groups, Tracer& tr) {
  std::uint64_t pdus = 0;
  double total_us = 0;
  for (const PduGroup& g : groups) {
    if (g.pdus == 0) {
      continue;
    }
    const std::uint64_t per_pdu = g.wire_bytes / g.pdus;
    const std::uint64_t len = per_pdu > sizeof(fbufs::AalTrailer)
                                  ? per_pdu - sizeof(fbufs::AalTrailer)
                                  : 0;
    std::vector<std::uint8_t> pdu(len);
    for (std::size_t i = 0; i < pdu.size(); ++i) {
      pdu[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    const std::uint64_t n = std::min(g.pdus, kAtmProbePdusPerGroup);
    fbufs::AtmReassembler reassembler;
    bool ok = true;
    const double s = tr.Time("probe/net/AtmSegmenter+AtmReassembler", [&] {
      std::vector<std::uint8_t> out;
      for (std::uint64_t i = 0; i < n; ++i) {
        fbufs::Status st = fbufs::Status::kExhausted;
        for (const fbufs::AtmCell& cell : fbufs::AtmSegmenter::Segment(pdu, 1)) {
          st = reassembler.Push(cell, &out);
        }
        ok = ok && fbufs::Ok(st) && out.size() == pdu.size();
      }
    });
    if (!ok) {
      std::fprintf(stderr, "perfbench: ATM probe failed to round-trip a PDU\n");
      std::exit(1);
    }
    total_us += s * 1e6 * static_cast<double>(g.pdus) / static_cast<double>(n);
    pdus += g.pdus;
  }
  return pdus == 0 ? 0.0 : total_us / static_cast<double>(pdus);
}


// Reference kernels, timed before every iteration. On a shared host other
// tenants' load moves host times by 10-30% within minutes, and these fixed
// kernels (benchmark code that no change to the simulator touches) move with
// it; host times divided by the kernels' slowdown hold still.
//   memory:  zero-filling a fresh 64 MB buffer, the operation that dominates
//            world set-up (it is one PhysMem arena);
//   compute: a bitwise CRC-32 over 64 KB, 8 passes.
// The nominal times are the kernels' medians on the reference machine
// (NOTES.md); they only fix the scale, so calibrated seconds read as seconds
// on that machine.
constexpr double kNominalMemoryS = 0.034;
constexpr double kNominalComputeS = 0.0068;

struct Slowdown {
  double memory = 1;   // measured / nominal memory kernel time
  double compute = 1;  // measured / nominal compute kernel time
};

volatile std::uint64_t g_kernel_sink = 0;

Slowdown MeasureSlowdown() {
  Slowdown sd;
  {
    std::unique_ptr<std::vector<std::uint8_t>> buf;
    const HostClock::time_point t0 = HostClock::now();
    buf = std::make_unique<std::vector<std::uint8_t>>(std::size_t{64} << 20);
    sd.memory = std::chrono::duration<double>(HostClock::now() - t0).count() /
                kNominalMemoryS;
    g_kernel_sink = g_kernel_sink + (*buf)[buf->size() / 2];
  }
  const std::vector<std::uint8_t> data(std::size_t{64} << 10, 0x5a);
  const HostClock::time_point t0 = HostClock::now();
  std::uint32_t crc = 0xffffffffu;
  for (int pass = 0; pass < 8; ++pass) {
    for (const std::uint8_t byte : data) {
      crc ^= byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
      }
    }
  }
  sd.compute = std::chrono::duration<double>(HostClock::now() - t0).count() /
               kNominalComputeS;
  g_kernel_sink = g_kernel_sink + crc;
  return sd;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--spans") {
      a->spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload stream|serve|incast --seed N "
                 "--seconds S [--trace 0|1] [--spans PATH]\n");
    return 2;
  }
  const Workload workload = MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tracer tracer;
  std::vector<Slowdown> slowdowns;
  std::vector<Iteration> iters;
  std::vector<bool> traced;
  std::string failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const HostClock::time_point start = HostClock::now();
  for (std::size_t i = 0;; ++i) {
    // Spans on every other measured iteration (the warmup is untraced).
    const bool on = args.trace && i % 2 == 1;
    tracer.set_enabled(on);
    tracer.set_iteration(i);
    slowdowns.push_back(MeasureSlowdown());
    Iteration it;
    tracer.Time("iteration", [&] { it = workload(tracer, i == 0); });
    attempted += it.attempted;
    failed += it.failed;
    if (!it.failure.empty()) {
      failure = it.failure;
      break;
    }
    if (!iters.empty() && it.sim != iters.front().sim) {
      failure = "nondeterminism: iteration " + std::to_string(i) +
                " simulated metrics differ from iteration 0";
      break;
    }
    iters.push_back(std::move(it));
    traced.push_back(on);
    const double elapsed =
        std::chrono::duration<double>(HostClock::now() - start).count();
    if (elapsed >= args.seconds && iters.size() >= kMinIterations) {
      break;
    }
  }

  if (!failure.empty()) {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": false, "
                "\"failure\": \"%s\", \"attempted\": %llu, \"failed\": %llu}\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                Escape(failure).c_str(),
                static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
                static_cast<unsigned long long>(failed));
    return 1;
  }

  // Host figures over the measured iterations (all but the warmup, which
  // also carries the lifecycle tracker). The end-to-end ones are calibrated:
  // set-up divided by the memory kernel's slowdown, the run phase by the
  // geometric mean of both kernels' (NOTES.md, "Calibrated host time").
  // Per-layer host figures stay raw.
  std::vector<double> setup_s, setup_raw_s, run_s, run_raw_s, audit_ms,
      reconcile_ms, run_traced_s, run_untraced_s, memory, compute;
  for (std::size_t i = 1; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    const Slowdown& sd = slowdowns[i];
    setup_s.push_back(it.setup_s / sd.memory);
    setup_raw_s.push_back(it.setup_s);
    run_s.push_back(it.run_s / std::sqrt(sd.memory * sd.compute));
    run_raw_s.push_back(it.run_s);
    audit_ms.push_back(it.audit_s * 1e3);
    reconcile_ms.push_back(it.reconcile_s * 1e3);
    memory.push_back(sd.memory);
    compute.push_back(sd.compute);
    (traced[i] ? run_traced_s : run_untraced_s).push_back(it.run_s);
  }
  const Iteration& first = iters.front();
  const double run_raw_median_s = Median(run_raw_s);
  std::vector<std::pair<std::string, double>> sim = first.sim;
  std::vector<std::pair<std::string, double>> host = {
      {"setup_s", Median(setup_s)},
      {"host_us_per_pdu",
       Median(run_s) * 1e6 / static_cast<double>(first.wire_pdus)},
      {"setup_raw_s", Median(setup_raw_s)},
      {"run_raw_s", run_raw_median_s},
      {"memory_slowdown", Median(memory)},
      {"compute_slowdown", Median(compute)},
      {"sim.host_ns_per_event",
       run_raw_median_s * 1e9 / static_cast<double>(first.events)},
      {"fault.audit_host_ms", Median(audit_ms)},
      {"obs.reconcile_host_ms", first.reconcile_s * 1e3},
      {"iterations", static_cast<double>(iters.size())},
  };
  sim.emplace_back("wire_pdus", static_cast<double>(first.wire_pdus));
  sim.emplace_back("attempted", static_cast<double>(first.attempted));
  sim.emplace_back("failed_share",
                   static_cast<double>(first.failed) /
                       static_cast<double>(std::max<std::uint64_t>(first.attempted, 1)));
  double arena_frames = 0;
  for (const std::uint32_t f : first.machine_frames) {
    arena_frames += f;
  }
  sim.emplace_back("sim.arena_mb",
                   arena_frames * static_cast<double>(fbufs::kPageSize) / (1 << 20));

  if (args.trace) {
    tracer.set_enabled(true);
    tracer.set_iteration(iters.size());
    std::uint64_t cell_pdus = 0;
    for (const PduGroup& g : first.cell_pdus) {
      cell_pdus += g.pdus;
    }
    const double atm_us = AtmProbeUsPerPdu(first.cell_pdus, tracer);
    const double untraced = Median(run_untraced_s);
    host.emplace_back("sim.arena_host_ms",
                      ArenaProbeMs(first.machine_frames, tracer));
    host.emplace_back("net.atm_host_us_per_pdu", atm_us);
    host.emplace_back("run.unattributed_ms",
                      run_raw_median_s * 1e3 -
                          atm_us * static_cast<double>(cell_pdus) / 1e3);
    host.emplace_back("trace.overhead_pct",
                      (Median(run_traced_s) - untraced) / untraced * 100.0);
    if (!args.spans_path.empty()) {
      std::FILE* f = std::fopen(args.spans_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.spans_path.c_str());
        return 1;
      }
      const std::string json = tracer.ChromeJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  host.emplace_back("peak_rss_mb", PeakRssMb());

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": true, \"attempted\": %llu, \"failed\": %llu,\n"
              " \"sim\": %s,\n \"host\": %s}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), Object(sim).c_str(),
              Object(host).c_str());
  return 0;
}

}  // namespace

int Tracer::Open(const char* name) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.iteration = iteration_;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::Close(int id, HostClock::time_point start, HostClock::time_point end) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  s.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  current_ = s.parent;
}

std::string Tracer::ChromeJson() const {
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += (i == 0 ? "" : ",\n");
    out += "{\"name\": \"" + Escape(s.name) + "\", \"ph\": \"X\", \"pid\": 1, "
           "\"tid\": 1, \"ts\": " + Num(s.start_us) + ", \"dur\": " +
           Num(s.dur_us) + ", \"args\": {\"iteration\": " +
           std::to_string(s.iteration) + ", \"parent\": \"" +
           (s.parent < 0 ? std::string() : Escape(spans_[s.parent].name)) +
           "\"}}";
  }
  return out + "\n]}\n";
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
