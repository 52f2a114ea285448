#include "src/topo/topo_config.h"

#include <string>
#include <utility>

namespace fbufs {

namespace {

// The receiver is always built first so its machine is the cost-model
// reference for link timing (matching the historical testbed).
NodeId BuildReceiver(BuiltTopology* b, const TopologyConfig& cfg,
                     std::uint32_t vci, std::uint16_t port) {
  b->receiver_node = b->topo->AddHost(std::make_unique<SimHost>(
      cfg.host, HostRole::kReceiver, vci, port, "receiver"));
  return b->receiver_node;
}

const CostParams* ReceiverCosts(BuiltTopology* b) {
  return &b->topo->host(b->receiver_node)->machine.costs();
}

}  // namespace

BuiltTopology BuildTopology(const TopologyConfig& cfg) {
  BuiltTopology b;
  b.loop = std::make_unique<EventLoop>();
  b.topo = std::make_unique<Topology>();

  switch (cfg.shape) {
    case TopologyShape::kDirect: {
      const NodeId rx = BuildReceiver(&b, cfg, kBaseVci, kBasePort);
      const NodeId tx = b.topo->AddHost(std::make_unique<SimHost>(
          cfg.host, HostRole::kSender, kBaseVci, kBasePort, "sender0"));
      b.sender_nodes.push_back(tx);
      const LinkId wire = b.topo->AddLink(tx, rx, ReceiverCosts(&b), "wire",
                                          cfg.sender_link_mbps);
      b.sender_links.push_back(wire);
      b.runner = std::make_unique<TopologyRunner>(b.topo.get(), b.loop.get());
      b.flows.push_back(b.runner->AddFlow(
          {Leg{tx, rx, kBaseVci, {Hop{wire, kNoNode}}}},
          b.topo->host(rx)->sink.get(), cfg.window));
      break;
    }

    case TopologyShape::kStar: {
      const NodeId rx = BuildReceiver(&b, cfg, kBaseVci, kBasePort);
      b.runner = std::make_unique<TopologyRunner>(b.topo.get(), b.loop.get());
      for (std::size_t i = 0; i < cfg.senders; ++i) {
        const std::uint32_t vci = kBaseVci + static_cast<std::uint32_t>(i);
        const std::uint16_t port =
            static_cast<std::uint16_t>(kBasePort + i);
        const NodeId tx = b.topo->AddHost(std::make_unique<SimHost>(
            cfg.host, HostRole::kSender, vci, port,
            "sender" + std::to_string(i)));
        b.sender_nodes.push_back(tx);
        const LinkId wire =
            b.topo->AddLink(tx, rx, ReceiverCosts(&b),
                            "wire/" + std::to_string(i), cfg.sender_link_mbps);
        b.sender_links.push_back(wire);
        SinkProtocol* sink =
            i == 0 ? b.topo->host(rx)->sink.get()
                   : b.topo->host(rx)->AddFlowEndpoint(vci, port, i);
        b.flows.push_back(b.runner->AddFlow(
            {Leg{tx, rx, vci, {Hop{wire, kNoNode}}}}, sink, cfg.window));
      }
      break;
    }

    case TopologyShape::kFanInSwitch: {
      const NodeId rx = BuildReceiver(&b, cfg, kBaseVci, kBasePort);
      b.switch_node = b.topo->AddSwitch("sw0", {cfg.switch_port});
      b.trunk_link = b.topo->AddLink(b.switch_node, rx, ReceiverCosts(&b),
                                     "trunk", cfg.trunk_mbps);
      b.runner = std::make_unique<TopologyRunner>(b.topo.get(), b.loop.get());
      for (std::size_t i = 0; i < cfg.senders; ++i) {
        const std::uint32_t vci = kBaseVci + static_cast<std::uint32_t>(i);
        const std::uint16_t port =
            static_cast<std::uint16_t>(kBasePort + i);
        const NodeId tx = b.topo->AddHost(std::make_unique<SimHost>(
            cfg.host, HostRole::kSender, vci, port,
            "sender" + std::to_string(i)));
        b.sender_nodes.push_back(tx);
        const LinkId uplink = b.topo->AddLink(
            tx, b.switch_node, ReceiverCosts(&b), "wire/" + std::to_string(i),
            cfg.sender_link_mbps);
        b.sender_links.push_back(uplink);
        b.topo->switch_at(b.switch_node)->Route(vci, 0);
        SinkProtocol* sink =
            i == 0 ? b.topo->host(rx)->sink.get()
                   : b.topo->host(rx)->AddFlowEndpoint(vci, port, i);
        // One leg, two hops: uplink into the switch, then the trunk.
        b.flows.push_back(b.runner->AddFlow(
            {Leg{tx, rx, vci,
                 {Hop{uplink, b.switch_node}, Hop{b.trunk_link, kNoNode}}}},
            sink, cfg.window));
      }
      break;
    }

    case TopologyShape::kRelayChain: {
      // VCIs/ports advance per leg: sender speaks kBaseVci/kBasePort to the
      // first relay, which forwards on kBaseVci+1/kBasePort+1, and so on.
      const std::uint32_t last_vci =
          kBaseVci + static_cast<std::uint32_t>(cfg.relays);
      const std::uint16_t last_port =
          static_cast<std::uint16_t>(kBasePort + cfg.relays);
      const NodeId rx = BuildReceiver(&b, cfg, last_vci, last_port);
      const NodeId tx = b.topo->AddHost(std::make_unique<SimHost>(
          cfg.host, HostRole::kSender, kBaseVci, kBasePort, "sender0"));
      b.sender_nodes.push_back(tx);
      for (std::size_t r = 0; r < cfg.relays; ++r) {
        RelayWiring wiring;
        wiring.out_vci = kBaseVci + static_cast<std::uint32_t>(r + 1);
        wiring.out_port = static_cast<std::uint16_t>(kBasePort + r + 1);
        b.relay_nodes.push_back(b.topo->AddHost(std::make_unique<SimHost>(
            cfg.host, HostRole::kRelay,
            kBaseVci + static_cast<std::uint32_t>(r),
            static_cast<std::uint16_t>(kBasePort + r),
            "relay" + std::to_string(r), &wiring)));
      }
      b.runner = std::make_unique<TopologyRunner>(b.topo.get(), b.loop.get());
      std::vector<Leg> legs;
      NodeId prev = tx;
      for (std::size_t r = 0; r <= cfg.relays; ++r) {
        const NodeId next = r < cfg.relays ? b.relay_nodes[r] : rx;
        const LinkId wire = b.topo->AddLink(
            prev, next, ReceiverCosts(&b), "wire/" + std::to_string(r),
            cfg.sender_link_mbps);
        b.sender_links.push_back(wire);
        legs.push_back(Leg{prev, next,
                           kBaseVci + static_cast<std::uint32_t>(r),
                           {Hop{wire, kNoNode}}});
        prev = next;
      }
      b.flows.push_back(b.runner->AddFlow(
          std::move(legs), b.topo->host(rx)->sink.get(), cfg.window));
      break;
    }
  }
  return b;
}

}  // namespace fbufs
