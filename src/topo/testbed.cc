#include "src/topo/testbed.h"

#include <memory>
#include <string>

namespace fbufs {

namespace {

TopologyConfig DirectShape(const TestbedConfig& config) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kDirect;
  cfg.host = config;
  cfg.window = config.window;
  return cfg;
}

}  // namespace

Testbed::Testbed(const TestbedConfig& config)
    : config_(config), built_(BuildTopology(DirectShape(config))) {}

std::size_t Testbed::AddFlow(std::uint32_t vci, std::uint16_t port) {
  const std::size_t index = built_.runner->flow_count();
  const NodeId tx = built_.topo->AddHost(std::make_unique<SimHost>(
      config_, HostRole::kSender, vci, port, "sender" + std::to_string(index)));
  built_.sender_nodes.push_back(tx);
  SinkProtocol* sink = receiver().AddFlowEndpoint(vci, port, index);
  // Every flow shares the single null-modem wire.
  const LinkId wire = built_.sender_links[0];
  built_.sender_links.push_back(wire);
  built_.flows.push_back(built_.runner->AddFlow(
      {Leg{tx, built_.receiver_node, vci, {Hop{wire, kNoNode}}}}, sink,
      config_.window));
  return built_.flows.back();
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
