// DecStations connected by a null modem between their Osiris boards:
// the paper's end-to-end UDP/IP experiment (Figures 5 and 6, and the §4 CPU
// load measurements), generalized to many concurrent flows.
//
// Since the topology fabric landed (src/topo/topology.h), the testbed is
// the trivial one-link topology: one receiver host, N sender hosts sharing
// one wire, one flow per sender, scheduled by TopologyRunner. The runner's
// one-link schedule is the historical testbed schedule, so fig5/fig6/
// cpu_load numbers reproduce byte-identically.
#ifndef SRC_TOPO_TESTBED_H_
#define SRC_TOPO_TESTBED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/driver.h"
#include "src/net/link.h"
#include "src/net/osiris.h"
#include "src/proto/ip.h"
#include "src/proto/loopback_stack.h"
#include "src/proto/test_protocols.h"
#include "src/proto/udp.h"
#include "src/sim/event_loop.h"
#include "src/topo/topo_runner.h"
#include "src/topo/topology.h"

namespace fbufs {

// The historical testbed configuration: per-host stack placement plus the
// run-level window.
struct TestbedConfig : SimHostConfig {
  std::uint32_t window = 8;  // sliding-window flow control, in messages
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);

  struct Result {
    double throughput_mbps = 0;
    double sender_cpu_load = 0;
    double receiver_cpu_load = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    SimTime elapsed_ns = 0;
  };

  // Streams |messages| test messages of |bytes| each from the sender's test
  // protocol to the receiver's sink. |warmup| extra messages are sent first
  // and excluded from the measurement (pipeline fill, cold fbuf caches).
  // Shorthand for RunFlows with traffic on the built-in flow only.
  Result Run(std::uint64_t messages, std::uint64_t bytes, std::uint64_t warmup = 0);

  // Adds a flow: a new sender host transmitting on |vci| (over the shared
  // wire) to a new sink bound at |port| on the receiving host. Flow 0
  // (VCI kVci, port 2000) exists from construction. Returns the flow index.
  std::size_t AddFlow(std::uint32_t vci, std::uint16_t port);

  // Schedules traffic[i] on flow i (entries beyond the flow count are
  // ignored; zero-message entries leave a flow idle), runs the event loop to
  // quiescence, and reports per-flow and per-resource results.
  MultiResult RunFlows(const std::vector<FlowTraffic>& traffic) {
    return runner_->RunFlows(traffic);
  }

  SimHost& sender() { return *topo_.host(sender_nodes_[0]); }
  SimHost& sender(std::size_t flow) { return *topo_.host(sender_nodes_[flow]); }
  SimHost& receiver() { return *topo_.host(receiver_node_); }
  NullModemLink& link() { return topo_.link(link_).wire_link(); }
  EventLoop& loop() { return loop_; }
  Topology& topology() { return topo_; }
  TopologyRunner& runner() { return *runner_; }
  std::size_t flow_count() const { return runner_->flow_count(); }
  SinkProtocol& flow_sink(std::size_t flow) { return runner_->flow_sink(flow); }

  static constexpr std::uint32_t kVci = 42;

 private:
  TestbedConfig config_;
  EventLoop loop_;
  Topology topo_;
  std::unique_ptr<TopologyRunner> runner_;
  std::vector<NodeId> sender_nodes_;
  NodeId receiver_node_ = kNoNode;
  LinkId link_ = 0;
};

}  // namespace fbufs

#endif  // SRC_TOPO_TESTBED_H_
