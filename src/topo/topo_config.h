// Declarative topology construction: name a shape and its parameters, get a
// wired graph plus a runner with one flow per sender — the reproducible,
// config-driven construction style of the gem5/SimBricks lineage, on our
// deterministic event engine.
//
// Shapes:
//   kDirect      — one sender, one link, one receiver (the paper's testbed);
//   kStar        — K senders, each on its own link straight into the
//                  receiver's adapter (fan-in contends at RX DMA / CPU);
//   kFanInSwitch — K senders -> ATM switch -> one trunk -> receiver: all
//                  VCIs route to one bounded output port, so the port and
//                  trunk are shared bottlenecks and overload sheds PDUs;
//   kRelayChain  — sender -> relay host(s) -> receiver: each relay receives
//                  into fbufs and forwards fbuf-to-fbuf onto its second
//                  adapter (the paper's cross-domain forwarding path).
#ifndef SRC_TOPO_TOPO_CONFIG_H_
#define SRC_TOPO_TOPO_CONFIG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/topo/topo_runner.h"
#include "src/topo/topology.h"

namespace fbufs {

enum class TopologyShape { kDirect, kStar, kFanInSwitch, kRelayChain };

// Flow i (relay chain: leg i) runs on VCI kBaseVci + i and delivers to UDP
// port kBasePort + i.
inline constexpr std::uint32_t kBaseVci = 42;
inline constexpr std::uint16_t kBasePort = 2000;

struct TopologyConfig {
  TopologyShape shape = TopologyShape::kDirect;
  SimHostConfig host;      // stack configuration shared by every host
  std::uint32_t window = 8;
  std::size_t senders = 1;  // kStar / kFanInSwitch
  std::size_t relays = 1;   // kRelayChain
  // Link rates in Mbps; 0 uses the cost model's default (516, the paper's
  // testbed wire).
  double sender_link_mbps = 0;
  double trunk_mbps = 0;                // switch -> receiver trunk
  SwitchPortConfig switch_port;         // kFanInSwitch shared output port
};

// A built scenario: the graph, its event loop, a runner with one flow per
// sender, and the node/flow ids needed to drive and inspect it.
struct BuiltTopology {
  std::unique_ptr<EventLoop> loop;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<TopologyRunner> runner;
  std::vector<std::size_t> flows;       // flow index per sender
  std::vector<NodeId> sender_nodes;
  std::vector<NodeId> relay_nodes;      // kRelayChain only
  NodeId receiver_node = kNoNode;
  NodeId switch_node = kNoNode;         // kFanInSwitch only
  std::vector<LinkId> sender_links;     // one per sender
  LinkId trunk_link = 0;                // kFanInSwitch only
};

BuiltTopology BuildTopology(const TopologyConfig& cfg);

}  // namespace fbufs

#endif  // SRC_TOPO_TOPO_CONFIG_H_
