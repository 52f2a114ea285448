// IncastWorld: a rack-structured fan-in of reliable transport conversations
// converging on one receiver host, packaged for the congestion benches and
// the congestion_collapse fault campaign.
//
// R racks × S senders each run one conversation (a sender Transport, a
// receiver Transport, a sink) over a shared fabric held entirely in |topo|:
// each flow's route is two hops that Topology::Traverse walks — its own
// ingress wire (a TopoLink — campaign loss faults address it) into the
// rack's ToR uplink queue, then, with no wire between them (kNoLink), the
// core switch's downlink queue to the receiver — the classic incast
// bottleneck.
// Switch queues are bounded in PDUs; past the saturation knee they drop, and
// with ECN enabled they mark per-VCI queue standing above the threshold
// (Transport::MarkCongestionExperienced carries the mark out-of-band,
// because fbufs are immutable in flight). Acks ride an uncontended reverse
// path with a fixed latency: incast congestion is a data-direction disease.
//
// All domains live on one simulated machine (the SwpWorld simplification:
// one clock, one fbuf pool — which is exactly what makes receiver memory
// pressure couple to the network). Each sender pins its unacked frames in a
// RetransmitLedger registered with the world's PressureManager, so the
// sweep's pageout stage can write cold retransmit-held fbufs to backing
// store, and credit-mode receivers size their grants from the pool's
// headroom (PressureManager::CreditFor).
//
// The same world runs all three transports — fixed-window SWP, credit,
// AIMD/ECN — differing only in IncastWorldConfig::kind, so the incast bench
// compares congestion policies, not worlds.
#ifndef SRC_FAULT_INCAST_WORLD_H_
#define SRC_FAULT_INCAST_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/flow_driver.h"
#include "src/obs/latency.h"
#include "src/pressure/pressure.h"
#include "src/pressure/retransmit_ledger.h"
#include "src/proto/swp.h"
#include "src/proto/test_protocols.h"
#include "src/proto/transport.h"
#include "src/sim/event_loop.h"
#include "src/topo/topology.h"
#include "src/vm/machine.h"

namespace fbufs {

enum class TransportKind { kFixedWindow, kCredit, kAimd };

const char* TransportKindName(TransportKind k);

struct IncastWorldConfig {
  TransportKind kind = TransportKind::kFixedWindow;
  std::uint32_t racks = 2;
  std::uint32_t senders_per_rack = 4;

  // Fixed-window size (kFixedWindow) and the AIMD max_cwnd.
  std::uint32_t window = 8;

  // Per-VCI ECN marking threshold at both switch tiers; 0 disables (the
  // fixed-window and credit configurations run drop-only fabrics).
  std::size_t ecn_threshold_pdus = 0;
  std::size_t switch_queue_pdus = 32;

  std::uint64_t seed = 0x1ca5;
};

class IncastWorld {
 public:
  explicit IncastWorld(const IncastWorldConfig& cfg);

  IncastWorld(const IncastWorld&) = delete;
  IncastWorld& operator=(const IncastWorld&) = delete;

  // The one-way data fabric below one sender transport: Topology::Traverse
  // over the flow's hops, then a delivery event that wakes the machine at
  // the frame's arrival (ScheduleOn) and hands it to the receiver transport
  // (with the ECN mark, when a switch raised one). Drops anywhere
  // on the path eat the frame silently — recovering it is the transport's
  // job.
  class FabricChannel : public Protocol {
   public:
    FabricChannel(IncastWorld* world, std::size_t flow, Domain* domain)
        : Protocol("incast-fabric", domain, world->stack_ptr()),
          world_(world),
          flow_(flow) {}

    Status Push(Message m) override;
    Status Pop(Message) override { return Status::kInvalidArgument; }
    bool touches_body() const override { return false; }

   private:
    IncastWorld* world_;
    std::size_t flow_;
  };

  // The uncontended reverse path: delivers each ack to the peer sender a
  // fixed latency later.
  class AckChannel : public Protocol {
   public:
    AckChannel(IncastWorld* world, std::size_t flow, Domain* domain)
        : Protocol("incast-ack", domain, world->stack_ptr()),
          world_(world),
          flow_(flow) {}

    Status Push(Message m) override;
    Status Pop(Message) override { return Status::kInvalidArgument; }
    bool touches_body() const override { return false; }

   private:
    IncastWorld* world_;
    std::size_t flow_;
  };

  struct Flow {
    std::uint32_t vci = 0;
    LinkId ingress = 0;
    // The data route: {Hop{ingress, ToR}, Hop{kNoLink, core}}.
    std::vector<Hop> hops;
    Domain* sender_domain = nullptr;
    PathId tx_hdr = 0;
    PathId rx_hdr = 0;
    PathId data = 0;
    std::unique_ptr<RetransmitLedger> ledger;
    std::unique_ptr<Transport> sender;
    std::unique_ptr<Transport> receiver;
    std::unique_ptr<SinkProtocol> sink;
    std::unique_ptr<FabricChannel> fwd;
    std::unique_ptr<AckChannel> rev;

    // The flow's producer, the same FlowDriver loop SwpWorld runs; started
    // by StartProducers.
    std::unique_ptr<FlowDriver> producer;

    // Per-flow latency decomposition (EnableLatency): the sender transport
    // feeds wire/retransmit/pin_hold; the producer and the delivery event
    // feed queue_wait and dispatch.
    LatencyDecomposition lat;
  };

  // Turns on latency-decomposition sampling for every flow (the transports
  // get AttachLatency, the producers time their backpressure waits). Call
  // before StartProducers.
  void EnableLatency();
  bool latency_enabled() const { return latency_enabled_; }

  // Starts every flow's producer: each keeps its window full until
  // |messages| of |bytes| each were accepted, parking on backpressure
  // (window closed, credits spent, congestion, pool exhausted) with the
  // shared capped-exponential backoff. Run the loop to quiescence after.
  void StartProducers(int messages, std::uint64_t bytes);

  // Stops one flow's producer cleanly (before terminating its domain —
  // a producer that outlives its domain is a use-after-free of the flow's
  // allocation path, not an interesting fault).
  void StopProducer(std::size_t flow);

  std::size_t flow_count() const { return flows_.size(); }
  Flow& flow(std::size_t i) { return *flows_[i]; }
  ProtocolStack* stack_ptr() { return &stack; }

  std::uint64_t total_delivered() const;
  std::uint64_t total_retransmissions() const;
  std::uint64_t total_accepted() const;
  std::uint64_t total_parks() const;
  std::uint64_t switch_drops() const { return topo.switch_drops(); }
  std::uint64_t ecn_marks() const { return topo.ecn_marks(); }
  bool any_producer_stalled() const;
  bool any_producer_failed() const;

  NodeId core_node() const { return core_node_; }
  NodeId tor_node(std::size_t rack) const { return tor_nodes_[rack]; }

  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  ProtocolStack stack;
  Topology topo;
  PressureManager pressure;
  Domain* receiver_domain;
  EventLoop loop;

 private:
  std::vector<NodeId> tor_nodes_;
  NodeId core_node_ = kNoNode;
  bool latency_enabled_ = false;
  std::vector<std::unique_ptr<Flow>> flows_;
};

}  // namespace fbufs

#endif  // SRC_FAULT_INCAST_WORLD_H_
