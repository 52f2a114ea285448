#include "src/topo/topology.h"

#include <utility>

namespace fbufs {

SwitchNode::SwitchNode(std::string name, std::vector<SwitchPortConfig> ports)
    : name_(std::move(name)) {
  ports_.reserve(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    ports_.emplace_back(ports[i],
                        "switch/" + name_ + "/port" + std::to_string(i));
  }
}

void SwitchNode::Route(std::uint32_t vci, std::size_t port) {
  assert(port < ports_.size());
  routes_[vci] = port;
}

SwitchNode::Outcome SwitchNode::Forward(std::uint32_t vci, std::uint64_t bytes,
                                        SimTime arrival) {
  auto it = routes_.find(vci);
  if (it == routes_.end()) {
    unroutable_++;
    return {arrival, true};
  }
  Port& p = ports_[it->second];
  // PDUs whose transmission completed by |arrival| have left the queue.
  while (!p.in_flight.empty() && p.in_flight.front().done <= arrival) {
    auto depth = p.vci_depth.find(p.in_flight.front().vci);
    if (depth != p.vci_depth.end() && --depth->second == 0) {
      p.vci_depth.erase(depth);
    }
    p.in_flight.pop_front();
  }
  if (p.in_flight.size() >= p.cfg.queue_pdus) {
    p.drops++;
    return {arrival, true};
  }
  const SimTime serialize =
      static_cast<SimTime>(static_cast<double>(bytes) * 8.0 * 1000.0 / p.cfg.mbps);
  const SimTime done = p.line.Acquire(arrival, serialize);
  p.in_flight.push_back({done, vci});
  p.forwarded++;
  const std::size_t depth_after = ++p.vci_depth[vci];
  bool marked = false;
  if (ecn_threshold_pdus_ > 0 && depth_after > ecn_threshold_pdus_) {
    marked = true;
    p.ecn_marks++;
  }
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("switch." + name_ + ".queue_depth")
        ->Observe(p.in_flight.size());
  }
  return {done, false, marked};
}

std::uint64_t SwitchNode::drops_total() const {
  std::uint64_t n = unroutable_;
  for (const Port& p : ports_) {
    n += p.drops;
  }
  return n;
}

std::uint64_t SwitchNode::ecn_marks_total() const {
  std::uint64_t n = 0;
  for (const Port& p : ports_) {
    n += p.ecn_marks;
  }
  return n;
}

NodeId Topology::AddHost(std::unique_ptr<SimHost> host) {
  const NodeId id = hosts_.size();
  hosts_.push_back(std::move(host));
  switches_.push_back(nullptr);
  return id;
}

NodeId Topology::AddSwitch(const std::string& name,
                           std::vector<SwitchPortConfig> ports) {
  const NodeId id = hosts_.size();
  hosts_.push_back(nullptr);
  switches_.push_back(std::make_unique<SwitchNode>(name, std::move(ports)));
  return id;
}

LinkId Topology::AddLink(NodeId from, NodeId to, const CostParams* costs,
                         std::string name, double mbps) {
  const LinkId id = links_.size();
  links_.push_back(std::make_unique<TopoLink>(costs, std::move(name), mbps, from,
                                              to, seed_ ^ (0x9e3779b9u * (id + 1))));
  return id;
}

std::uint64_t Topology::switch_drops() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    if (sw != nullptr) {
      n += sw->drops_total();
    }
  }
  return n;
}

std::uint64_t Topology::ecn_marks() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_) {
    if (sw != nullptr) {
      n += sw->ecn_marks_total();
    }
  }
  return n;
}

Topology::Outcome Topology::Traverse(std::uint32_t vci,
                                     const std::vector<Hop>& hops,
                                     std::uint64_t bytes, SimTime ready) {
  Outcome out{ready};
  for (const Hop& hop : hops) {
    if (hop.link != kNoLink) {
      const TopoLink::Outcome wire = link(hop.link).Transmit(bytes, out.done);
      if (wire.dropped) {
        return {0, true};
      }
      out.done = wire.arrival;
    }
    if (hop.via_switch != kNoNode) {
      const SwitchNode::Outcome fwd =
          switch_at(hop.via_switch)->Forward(vci, bytes, out.done);
      if (fwd.dropped) {
        return {0, true};
      }
      out.done = fwd.done;
      out.ecn_marked = out.ecn_marked || fwd.ecn_marked;
    }
  }
  return out;
}

Topology::Outcome Topology::Carry(const Leg& leg, std::uint64_t payload_bytes,
                                  SimTime ready) {
  const std::uint64_t wire_bytes = AalWireBytes(payload_bytes);
  Outcome out =
      Traverse(leg.vci, leg.hops, wire_bytes,
               host(leg.tx)->out_adapter().TxDma(wire_bytes, ready));
  if (!out.dropped) {
    out.done = host(leg.rx)->adapter.RxDma(wire_bytes, out.done);
  }
  return out;
}

}  // namespace fbufs
