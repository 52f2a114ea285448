// DecStations connected by a null modem between their Osiris boards:
// the paper's end-to-end UDP/IP experiment (Figures 5 and 6, and the §4 CPU
// load measurements), generalized to many concurrent flows.
//
// The testbed is BuildTopology's kDirect shape (src/topo/topo_config.h):
// one receiver host, one sender host, one wire, one flow, scheduled by
// TopologyRunner, whose one-link schedule is the historical testbed
// schedule, so fig5/fig6/cpu_load numbers reproduce byte-identically.
// AddFlow adds what no shape builds: further sender hosts sharing that one
// wire, each flow to its own sink on the receiver.
#ifndef SRC_TOPO_TESTBED_H_
#define SRC_TOPO_TESTBED_H_

#include <cstdint>
#include <vector>

#include "src/topo/topo_config.h"

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
  // (VCI kBaseVci, port kBasePort) exists from construction. Returns the
  // flow index.
  std::size_t AddFlow(std::uint32_t vci, std::uint16_t port);

  // Schedules traffic[i] on flow i (entries beyond the flow count are
  // ignored; zero-message entries leave a flow idle), runs the event loop to
  // quiescence, and reports per-flow and per-resource results.
  MultiResult RunFlows(const std::vector<FlowTraffic>& traffic) {
    return built_.runner->RunFlows(traffic);
  }

  SimHost& sender() { return sender(0); }
  SimHost& sender(std::size_t flow) {
    return *built_.topo->host(built_.sender_nodes[flow]);
  }
  SimHost& receiver() { return *built_.topo->host(built_.receiver_node); }
  NullModemLink& link() {
    return built_.topo->link(built_.sender_links[0]).wire_link();
  }
  EventLoop& loop() { return *built_.loop; }
  Topology& topology() { return *built_.topo; }
  TopologyRunner& runner() { return *built_.runner; }
  std::size_t flow_count() const { return built_.runner->flow_count(); }
  SinkProtocol& flow_sink(std::size_t flow) {
    return built_.runner->flow_sink(flow);
  }

 private:
  TestbedConfig config_;
  BuiltTopology built_;
};

}  // namespace fbufs

#endif  // SRC_TOPO_TESTBED_H_
