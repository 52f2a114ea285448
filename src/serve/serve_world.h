// ServeWorld: a star topology serving files to a fan-in of client hosts.
//
// One sender-shaped server host (its FileCache and FileServer in the app
// domain) with a unidirectional link to each of C receiver-shaped client
// hosts. Tens of thousands of logical request flows multiplex over the
// client hosts: each request is framed (src/serve/request.h), written into
// a small fbuf by a frontend domain on the server machine, and delivered to
// the FileServer over the IPC fabric — synchronously, or batched over
// transfer rings when |use_rings| is set. The response blocks the server
// pushes down its stack come out of the driver as staged PDUs; the world
// carries each over the client's leg with Topology::Carry (TX DMA, the
// client's link with its drops, RX DMA), the pipeline TopologyRunner uses,
// and wakes the client with ScheduleOn at RX DMA completion to deliver its
// payload into the client's receive stack.
//
// Flow lifecycle (§3.3): a request completes when its last PDU is delivered
// (or accounted dropped); the client's dealloc notice rides back one cell
// time later and wakes the server, and only then does FileServer unpin the
// request's cache blocks. A failed flow (dead client domain, stalled
// backpressure) takes the same notice path through AbortRequest, so pins
// never leak no matter how the flow ends.
#ifndef SRC_SERVE_SERVE_WORLD_H_
#define SRC_SERVE_SERVE_WORLD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/file_cache.h"
#include "src/pressure/backoff.h"
#include "src/pressure/pressure.h"
#include "src/serve/file_server.h"
#include "src/sim/event_loop.h"
#include "src/topo/topology.h"

namespace fbufs {

struct ServeWorldConfig {
  std::size_t clients = 4;
  SimHostConfig host;  // stack shape shared by server and clients
  FileCacheConfig cache;
  // Concurrent request window; arrivals beyond it queue FIFO.
  std::uint32_t max_inflight = 64;
  bool use_rings = false;       // batch server-side crossings over rings
  bool attach_pressure = false;  // PressureManager + degraded miss path
  SimTime stall_horizon = 250 * kMillisecond;
};

struct ServeRequestSpec {
  SimTime at = 0;            // arrival time (event-loop timeline)
  std::uint32_t client = 0;  // which client host issues it
  FileId file = 0;
  std::uint32_t blocks = 1;  // requested length, in cache blocks
};

struct ServeRunStats {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;  // all PDUs accounted (drops included)
  std::uint64_t truncated = 0;  // completed, but lost PDUs to link drops
  std::uint64_t failed = 0;     // hard failure or stall watchdog
  std::uint64_t stall_failures = 0;
  std::uint64_t unfinished = 0;  // still pending at quiescence (aborted)
  std::uint64_t parks = 0;       // backpressure park/retry episodes
  std::uint64_t served_blocks = 0;
  std::uint64_t hit_blocks = 0;
  std::uint64_t degraded_blocks = 0;
  std::uint64_t pdus_dropped = 0;
  std::uint64_t discarded_pdus = 0;  // staged by serves that then failed
  std::uint64_t delivered_bytes = 0;
  SimTime elapsed_ns = 0;
  // Request completion latencies (issue -> last PDU accounted), in
  // completion order; failed requests are excluded.
  std::vector<SimTime> latencies;
  double goodput_mbps = 0;
  double hit_ratio = 0;
};

// The frontend protocol: origin of request messages on the server machine.
// It never receives traffic itself — requests are injected with
// ProtocolStack::Deliver(frontend -> FileServer), so the crossing is
// charged (and rides rings when enabled) like any other IPC.
class RequestSource : public Protocol {
 public:
  RequestSource(Domain* domain, ProtocolStack* stack)
      : Protocol("request-source", domain, stack) {}
  Status Push(Message) override { return Status::kInvalidArgument; }
  Status Pop(Message) override { return Status::kInvalidArgument; }
  bool touches_body() const override { return false; }
};

class ServeWorld {
 public:
  // Seed of the star topology's link-loss streams.
  static constexpr std::uint64_t kTopoSeed = 0x5e44e;

  explicit ServeWorld(const ServeWorldConfig& config);

  ServeWorld(const ServeWorld&) = delete;
  ServeWorld& operator=(const ServeWorld&) = delete;

  // Runs one request schedule to quiescence (including the ring epilogue
  // and all dealloc notices) and reports. Callable repeatedly; stats are
  // per run.
  ServeRunStats Run(const std::vector<ServeRequestSpec>& schedule);

  // Turns on latency-decomposition sampling: queue_wait (arrival → issue),
  // wire (staged → RX DMA done), dispatch (RX DMA done → client CPU pickup)
  // recorded here, pin_hold by the FileServer. Call before Run.
  void EnableLatency() {
    latency_enabled_ = true;
    file_server_->AttachLatency(&lat_);
  }
  const LatencyDecomposition& latency() const { return lat_; }

  EventLoop& loop() { return loop_; }
  Topology& topo() { return topo_; }
  SimHost& server() { return *topo_.host(server_node_); }
  SimHost& client(std::size_t i) { return *topo_.host(client_legs_[i].rx); }
  NodeId server_node() const { return server_node_; }
  NodeId client_node(std::size_t i) const { return client_legs_[i].rx; }
  LinkId client_link(std::size_t i) const {
    return client_legs_[i].hops.front().link;
  }
  std::size_t client_count() const { return client_legs_.size(); }
  FileCache& cache() { return *cache_; }
  FileServer& file_server() { return *file_server_; }
  PressureManager* pressure() { return pressure_.get(); }
  const ServeWorldConfig& config() const { return cfg_; }

 private:
  struct Pending {
    ServeRequestSpec spec;
    SimTime issue_at = 0;
    std::uint64_t pdus_left = 0;
    std::uint64_t dropped = 0;
    bool serve_seen = false;  // FileServer's outcome arrived
    FlowBackoff backoff;
  };
  // FIFO claim on the server's staged PDUs: |remaining| PDUs of request
  // |id| will come out of the driver next (|discard| when the serve failed
  // and the partial response must be dropped on the floor).
  struct WireClaim {
    std::uint64_t id = 0;
    std::uint64_t remaining = 0;
    bool discard = false;
  };

  void Arrive(const ServeRequestSpec& spec);
  void Issue(const ServeRequestSpec& spec);
  void DeliverRequest(std::uint64_t id);
  void OnServed(const FileServer::Served& served);
  void SchedulePump();
  void PumpStaged();
  void WirePdu(std::uint64_t id, SimHost::StagedPdu pdu);
  void DeliverPduEvent(std::uint64_t id, std::vector<std::uint8_t> payload,
                       SimTime rx_dma_done);
  void PduDropped(std::uint64_t id);
  void FinishRequest(std::uint64_t id);
  void FailRequest(std::uint64_t id, Status st);
  // Schedules the dealloc notice (one cell time) that releases the pins.
  void ScheduleNotice(std::uint64_t id, bool failed);
  void IssueFromQueue();
  // Parks |id| on its backoff; |retry| wakes |host| when the delay expires.
  void ParkRetry(std::uint64_t id, Machine& host, const std::string& label,
                 EventLoop::Handler retry);

  ServeWorldConfig cfg_;
  EventLoop loop_;
  Topology topo_;
  NodeId server_node_ = 0;
  std::vector<Leg> client_legs_;  // server -> client i, over client i's link

  Domain* frontend_dom_ = nullptr;
  PathId request_path_ = kNoPath;
  std::unique_ptr<RequestSource> frontend_;
  std::unique_ptr<FileCache> cache_;
  std::unique_ptr<FileServer> file_server_;
  std::unique_ptr<PressureManager> pressure_;

  bool latency_enabled_ = false;
  LatencyDecomposition lat_;

  // Per-run state.
  std::map<std::uint64_t, Pending> pending_;
  std::deque<ServeRequestSpec> overflow_;
  std::deque<WireClaim> wire_claims_;
  std::uint64_t next_id_ = 1;
  std::uint32_t inflight_ = 0;
  bool pump_scheduled_ = false;
  ServeRunStats stats_;
};

}  // namespace fbufs

#endif  // SRC_SERVE_SERVE_WORLD_H_
