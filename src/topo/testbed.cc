#include "src/topo/testbed.h"

#include <utility>

namespace fbufs {

Testbed::Testbed(const TestbedConfig& config) : config_(config) {
  // Host construction order (receiver, then sender0) matches the historical
  // testbed; the wire's timing comes from the receiver's cost model.
  receiver_node_ = topo_.AddHost(std::make_unique<SimHost>(
      config, HostRole::kReceiver, kVci, /*port=*/2000, "receiver"));
  sender_nodes_.push_back(topo_.AddHost(std::make_unique<SimHost>(
      config, HostRole::kSender, kVci, /*port=*/2000, "sender0")));
  link_ = topo_.AddLink(sender_nodes_[0], receiver_node_,
                        &topo_.host(receiver_node_)->machine.costs(), "wire");
  runner_ = std::make_unique<TopologyRunner>(&topo_, &loop_);

  Leg leg;
  leg.tx = sender_nodes_[0];
  leg.rx = receiver_node_;
  leg.vci = kVci;
  leg.hops.push_back(Hop{link_, kNoNode});
  runner_->AddFlow({leg}, topo_.host(receiver_node_)->sink.get(),
                   config.window);
}

std::size_t Testbed::AddFlow(std::uint32_t vci, std::uint16_t port) {
  const std::size_t index = runner_->flow_count();
  const NodeId tx = topo_.AddHost(std::make_unique<SimHost>(
      config_, HostRole::kSender, vci, port, "sender" + std::to_string(index)));
  sender_nodes_.push_back(tx);
  SinkProtocol* sink =
      topo_.host(receiver_node_)->AddFlowEndpoint(vci, port, index);

  // Every flow shares the single null-modem wire, as before.
  Leg leg;
  leg.tx = tx;
  leg.rx = receiver_node_;
  leg.vci = vci;
  leg.hops.push_back(Hop{link_, kNoNode});
  return runner_->AddFlow({leg}, sink, config_.window);
}

Testbed::Result Testbed::Run(std::uint64_t messages, std::uint64_t bytes,
                             std::uint64_t warmup) {
  std::vector<FlowTraffic> traffic(1);
  traffic[0].messages = messages;
  traffic[0].bytes = bytes;
  traffic[0].warmup = warmup;
  const MultiResult mr = RunFlows(traffic);

  Result result;
  result.messages = messages;
  result.bytes = messages * bytes;
  const FlowResult& fr = mr.flows[0];
  if (fr.failed) {
    result.throughput_mbps = -1;
    return result;
  }
  result.elapsed_ns = fr.elapsed_ns;
  result.throughput_mbps = fr.throughput_mbps;
  result.sender_cpu_load = fr.sender_cpu_load;
  result.receiver_cpu_load = mr.receiver_cpu_load;
  return result;
}

}  // namespace fbufs
