// TopologyRunner: schedules flows end-to-end over a Topology on the event
// engine and reports per-flow throughput/goodput plus per-resource
// utilization.
//
// A flow is a route of one or more legs. Topology::Carry runs each leg's
// pipeline — TX DMA, one or more wire hops (each optionally through a
// switch), RX DMA — and the PDU's payload moves untouched into its arrival
// event at either the final receiver (sink delivery, "deliver/<flow>/<msg>")
// or a relay host ("relay/<flow>/<msg>"), which receives the PDU into fbufs,
// forwards fbuf-to-fbuf across its domains onto the second adapter, and the
// next leg carries what it staged. Each arrival wakes its host on its RSS
// lane through ScheduleOn, except at a multicore receiver, whose dispatch
// queue owns arrival. Dropped PDUs (lossy link, full switch queue)
// are counted and still complete their message's flow-control accounting,
// so the sender window never hangs on loss.
//
// The two-host Testbed is the one-link special case: with a single leg and
// a single hop this runner executes exactly the historical testbed schedule
// (same events, same labels, same resource-acquire order), so fig5/fig6/
// cpu_load reproduce byte-identically.
#ifndef SRC_TOPO_TOPO_RUNNER_H_
#define SRC_TOPO_TOPO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/topo/topology.h"

namespace fbufs {

struct FlowTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t warmup = 0;
};

struct FlowResult {
  double throughput_mbps = 0;
  double sender_cpu_load = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  SimTime elapsed_ns = 0;
  bool failed = false;
  // Loss-aware accounting: bytes that actually reached the flow's sink
  // during the measurement window, and PDUs shed along the route.
  std::uint64_t delivered_bytes = 0;
  double goodput_mbps = 0;
  std::uint64_t pdus_dropped = 0;
  // Fault-campaign observability: messages whose flow-control accounting
  // completed (warmup included), and whether the run went quiescent with
  // work left but no failure — a wedged window, which the credit scheme is
  // supposed to make impossible even under loss.
  std::uint64_t completed_messages = 0;
  bool stalled = false;
};

struct ResourceUse {
  std::string name;
  SimTime busy_ns = 0;
  double utilization = 0;  // over the run's measurement window
};

struct MultiResult {
  std::vector<FlowResult> flows;
  double aggregate_mbps = 0;
  double receiver_cpu_load = 0;
  SimTime elapsed_ns = 0;
  std::vector<ResourceUse> resources;
  bool failed = false;
};

class TopologyRunner {
 public:
  TopologyRunner(Topology* topo, EventLoop* loop) : topo_(topo), loop_(loop) {}

  // Adds a flow along |legs| delivering into |sink| (a sink on the last
  // leg's rx host). |window| is the sliding-window depth in messages.
  // Returns the flow index.
  std::size_t AddFlow(std::vector<Leg> legs, SinkProtocol* sink,
                      std::uint32_t window);

  // Schedules traffic[i] on flow i (entries beyond the flow count are
  // ignored; zero-message entries leave a flow idle), runs the event loop to
  // quiescence, and reports per-flow and per-resource results.
  MultiResult RunFlows(const std::vector<FlowTraffic>& traffic);

  std::size_t flow_count() const { return flows_.size(); }
  SinkProtocol& flow_sink(std::size_t flow) { return *flows_[flow].sink; }

 private:
  struct Flow {
    std::vector<Leg> legs;
    SinkProtocol* sink = nullptr;
    std::uint32_t window = 8;
  };

  // Per-flow state of one RunFlows invocation.
  struct FlowRun {
    FlowTraffic traffic;
    std::uint64_t total = 0;      // warmup + messages
    std::uint64_t next = 0;       // next message index to send
    std::uint64_t completed = 0;  // messages fully delivered
    std::vector<SimTime> ack_time;
    std::vector<bool> acked;
    std::vector<std::uint64_t> pdus_left;
    std::uint64_t dropped = 0;         // PDUs shed along the route
    std::uint64_t sink_bytes_start = 0;
    SimTime t0_tx = 0;
    SimTime t0_rx = 0;
    SimTime tx_end = 0;
    SimTime rx_end = 0;
    SimTime tx_busy = 0;
    SimTime rx_busy = 0;
    // RSS steering (multicore hosts): the lane this flow's send and receive
    // processing is pinned to. Always 0 on single-CPU machines.
    std::uint32_t tx_cpu = 0;
    std::uint32_t rx_cpu = 0;
    bool failed = false;
  };

  SimHost& TxHost(std::size_t flow) { return *topo_->host(flows_[flow].legs.front().tx); }
  SimHost& RxHost(std::size_t flow) { return *topo_->host(flows_[flow].legs.back().rx); }

  void ScheduleSenderStep(std::size_t flow);
  void SenderStep(std::size_t flow);
  // Pipes one staged PDU through leg |leg| of |flow|; schedules its arrival
  // event (deliver on the last leg, relay otherwise) or records the drop.
  void RunLeg(std::size_t flow, std::size_t leg, std::uint64_t msg,
              SimHost::StagedPdu pdu);
  // Hands one PDU to the receiver's driver on the active CPU lane, adds the
  // lane time to the flow's receive accounting (and to |cpu|, when given: a
  // dispatcher lane books its own), and completes the message on its last
  // PDU. A failed delivery fails the flow.
  void Deliver(std::size_t flow, std::uint64_t msg,
               const std::vector<std::uint8_t>& payload, Resource* cpu);
  void RelayEvent(std::size_t flow, std::size_t leg, std::uint64_t msg,
                  const std::vector<std::uint8_t>& payload);
  void PduDropped(std::size_t flow, std::uint64_t msg);
  void CompleteMessage(std::size_t flow, std::uint64_t msg);

  Topology* topo_;
  EventLoop* loop_;
  std::vector<Flow> flows_;
  std::vector<FlowRun> runs_;       // live during RunFlows
  std::vector<bool> step_pending_;  // one sender-step event in flight per flow
};

}  // namespace fbufs

#endif  // SRC_TOPO_TOPO_RUNNER_H_
