// Tests for the topology fabric: declarative construction (star, fan-in
// switch, relay chain), trace-hash determinism of multi-host schedules,
// fbuf-to-fbuf relay forwarding (pointer identity, zero copies), bounded
// switch queues shedding load without hanging the run, deterministic
// per-link loss injection, and Traverse's hop walk through chained switches
// (ECN marks, drops, and the fabric-wide switch totals).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/proto/ip.h"
#include "src/proto/udp.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace {

TopologyConfig StarConfig(std::size_t senders) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kStar;
  cfg.senders = senders;
  return cfg;
}

std::vector<FlowTraffic> UniformTraffic(std::size_t flows,
                                        std::uint64_t messages,
                                        std::uint64_t bytes,
                                        std::uint64_t warmup) {
  std::vector<FlowTraffic> traffic(flows);
  for (FlowTraffic& t : traffic) {
    t.messages = messages;
    t.bytes = bytes;
    t.warmup = warmup;
  }
  return traffic;
}

TEST(Topology, ThreeSenderStarIsTraceHashDeterministic) {
  const auto run = [] {
    BuiltTopology b = BuildTopology(StarConfig(3));
    const MultiResult mr =
        b.runner->RunFlows(UniformTraffic(3, 6, 32 * 1024, /*warmup=*/2));
    EXPECT_FALSE(mr.failed);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(b.runner->flow_sink(i).received(), 8u) << "flow " << i;
      EXPECT_GT(mr.flows[i].goodput_mbps, 0.0) << "flow " << i;
      EXPECT_EQ(mr.flows[i].pdus_dropped, 0u) << "flow " << i;
    }
    for (const ResourceUse& r : mr.resources) {
      EXPECT_GE(r.utilization, 0.0) << r.name;
      EXPECT_LE(r.utilization, 1.0) << r.name;
    }
    struct Out {
      std::uint64_t hash;
      double aggregate;
    };
    return Out{b.loop->trace_hash(), mr.aggregate_mbps};
  };
  const auto first = run();
  const auto second = run();
  // Two builds of the same scenario dispatch byte-identical schedules.
  EXPECT_EQ(first.hash, second.hash);
  EXPECT_EQ(first.aggregate, second.aggregate);
}

TEST(Topology, RelayForwardsTheSameFbufWithoutCopying) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kRelayChain;
  cfg.relays = 1;
  BuiltTopology b = BuildTopology(cfg);
  SimHost& sender = *b.topo->host(b.sender_nodes[0]);
  SimHost& relay = *b.topo->host(b.relay_nodes[0]);

  // Stage one single-fragment datagram on the sender, then hand its PDU to
  // the relay's inbound board directly (no runner — this test watches the
  // relay's internals, not the schedule).
  constexpr std::uint64_t kBytes = 2048;
  ASSERT_EQ(sender.source->SendOne(kBytes), Status::kOk);
  ASSERT_EQ(sender.staged.size(), 1u);
  const std::vector<std::uint8_t> in_pdu = sender.staged.front().payload;
  sender.staged.clear();

  ASSERT_EQ(relay.driver->DeliverPdu(in_pdu, sender.vci,
                                     relay.config.volatile_fbufs),
            Status::kOk);

  // The datagram climbed the in-stack and came out staged on the out-board.
  EXPECT_EQ(relay.relay_proto->forwarded(), 1u);
  EXPECT_EQ(relay.relay_proto->bytes_forwarded(), kBytes);
  ASSERT_EQ(relay.staged.size(), 1u);
  const std::vector<std::uint8_t>& out_pdu = relay.staged.front().payload;

  // Payload preservation: past the rewritten IP/UDP headers the forwarded
  // PDU carries the original bytes untouched.
  constexpr std::uint64_t kHeaders =
      IpProtocol::kHeaderBytes + UdpProtocol::kHeaderBytes;
  ASSERT_EQ(out_pdu.size(), in_pdu.size());
  for (std::uint64_t i = kHeaders; i < in_pdu.size(); ++i) {
    ASSERT_EQ(out_pdu[i], in_pdu[i]) << "payload byte " << i;
  }

  // Zero-copy forwarding, literally: the fbuf the inbound DMA scattered into
  // is the same object the relay protocol saw and the same object the
  // outbound DMA gathered from — references moved, bytes did not.
  EXPECT_NE(relay.driver->last_rx_fbuf(), nullptr);
  EXPECT_EQ(relay.driver->last_rx_fbuf(), relay.relay_proto->first_extent_fbuf());
  EXPECT_EQ(relay.driver->last_rx_fbuf(), relay.driver_out->last_tx_fbuf());
  EXPECT_EQ(relay.machine.stats().bytes_copied, 0u);
}

TEST(Topology, RelayChainDeliversEndToEndWithZeroCopies) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kRelayChain;
  cfg.relays = 1;
  BuiltTopology b = BuildTopology(cfg);
  const MultiResult mr =
      b.runner->RunFlows(UniformTraffic(1, 5, 16 * 1024, /*warmup=*/1));
  ASSERT_FALSE(mr.failed);
  SimHost& relay = *b.topo->host(b.relay_nodes[0]);
  EXPECT_EQ(b.runner->flow_sink(0).received(), 6u);
  EXPECT_EQ(b.runner->flow_sink(0).bytes_received(), 6u * 16 * 1024);
  EXPECT_EQ(relay.relay_proto->forwarded(), 6u);
  EXPECT_EQ(mr.flows[0].pdus_dropped, 0u);
  EXPECT_GT(mr.flows[0].goodput_mbps, 0.0);
  // The whole run forwarded every datagram without copying a byte on the
  // relay host.
  EXPECT_EQ(relay.machine.stats().bytes_copied, 0u);
}

TEST(Topology, SwitchQueueOverflowShedsPdusWithoutHanging) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = 4;
  cfg.switch_port.mbps = 50.0;  // slow output line behind 516 Mbps uplinks
  cfg.switch_port.queue_pdus = 2;
  BuiltTopology b = BuildTopology(cfg);
  // RunFlows returning at all is the no-hang assertion: dropped PDUs still
  // complete their message's flow-control accounting.
  const MultiResult mr =
      b.runner->RunFlows(UniformTraffic(4, 6, 32 * 1024, /*warmup=*/0));
  ASSERT_FALSE(mr.failed);

  SwitchNode* sw = b.topo->switch_at(b.switch_node);
  EXPECT_GT(sw->drops_total(), 0u);
  EXPECT_EQ(sw->unroutable(), 0u);
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;
  for (const FlowResult& f : mr.flows) {
    dropped += f.pdus_dropped;
    delivered += f.delivered_bytes;
  }
  // Every drop the flows observed happened at the switch (links are
  // loss-free here), and lost PDUs show up as goodput < offered load.
  EXPECT_EQ(dropped, sw->drops_total());
  EXPECT_LT(delivered, 4u * 6 * 32 * 1024);
  for (const FlowResult& f : mr.flows) {
    EXPECT_LT(f.goodput_mbps, f.throughput_mbps);
  }
}

TEST(Topology, LinkLossIsDeterministicAndStaysOnItsLink) {
  const auto run = [] {
    BuiltTopology b = BuildTopology(StarConfig(2));
    b.topo->link(b.sender_links[0]).set_drop_percent(30);
    const MultiResult mr =
        b.runner->RunFlows(UniformTraffic(2, 12, 16 * 1024, /*warmup=*/0));
    EXPECT_FALSE(mr.failed);
    struct Out {
      std::uint64_t hash;
      std::uint64_t lossy_drops;
      std::uint64_t clean_drops;
      std::uint64_t flow0_dropped;
      std::uint64_t flow1_dropped;
    };
    return Out{b.loop->trace_hash(), b.topo->link(b.sender_links[0]).drops(),
               b.topo->link(b.sender_links[1]).drops(),
               mr.flows[0].pdus_dropped, mr.flows[1].pdus_dropped};
  };
  const auto first = run();
  const auto second = run();
  // Loss comes from the link's own seeded stream: replays are identical.
  EXPECT_EQ(first.hash, second.hash);
  EXPECT_EQ(first.lossy_drops, second.lossy_drops);
  EXPECT_GT(first.lossy_drops, 0u);
  // Only the lossy link sheds; its neighbour's stream never advances.
  EXPECT_EQ(first.clean_drops, 0u);
  EXPECT_EQ(first.flow0_dropped, first.lossy_drops);
  EXPECT_EQ(first.flow1_dropped, 0u);
}

TEST(Topology, TraverseWalksALinkThenTwoChainedSwitches) {
  // link -> switch A, then A's port feeds switch B directly (no wire): the
  // IncastWorld route. B's slow line makes B the bottleneck.
  const CostParams costs = CostParams::DecStation5000();
  Topology topo;
  const NodeId a = topo.AddSwitch("a", {SwitchPortConfig{}});
  const NodeId b = topo.AddSwitch("b", {SwitchPortConfig{50.0, 8}});
  const LinkId in = topo.AddLink(a, a, &costs, "in");
  constexpr std::uint32_t kVci = 7;
  SwitchNode& sw_a = *topo.switch_at(a);
  SwitchNode& sw_b = *topo.switch_at(b);
  sw_a.Route(kVci, 0);
  sw_b.Route(kVci, 0);
  constexpr std::size_t kEcnThreshold = 2;
  sw_b.set_ecn_threshold(kEcnThreshold);
  const std::vector<Hop> hops = {Hop{in, a}, Hop{kNoLink, b}};

  constexpr std::uint64_t kBytes = 4096;
  constexpr std::size_t kPdus = 5;
  for (std::size_t i = 0; i < kPdus; ++i) {
    const Topology::Outcome out = topo.Traverse(kVci, hops, kBytes, 0);
    ASSERT_FALSE(out.dropped) << "pdu " << i;
    // The walk ends when B's port finishes serializing the PDU.
    EXPECT_EQ(out.done, sw_b.port_resource(0).busy_until()) << "pdu " << i;
    // All PDUs stand in B's queue (its line is 10x slower than the wire):
    // past the threshold, B marks.
    EXPECT_EQ(out.ecn_marked, i >= kEcnThreshold) << "pdu " << i;
  }
  // Only the first hop has a wire; the kNoLink hop never touches one.
  EXPECT_EQ(topo.link(in).wire_link().pdus_carried(), kPdus);
  EXPECT_EQ(sw_a.ecn_marks_total(), 0u);
  EXPECT_EQ(sw_b.ecn_marks_total(), kPdus - kEcnThreshold);

  // Squeezed to zero, B sheds the next arrival and the walk stops there.
  sw_b.set_port_queue_limit(0, 0);
  const Topology::Outcome shed = topo.Traverse(kVci, hops, kBytes, 0);
  EXPECT_TRUE(shed.dropped);
  EXPECT_EQ(sw_b.port_drops(0), 1u);
  EXPECT_EQ(sw_a.drops_total(), 0u);

  EXPECT_EQ(topo.switch_drops(), sw_a.drops_total() + sw_b.drops_total());
  EXPECT_EQ(topo.ecn_marks(), sw_a.ecn_marks_total() + sw_b.ecn_marks_total());
}

}  // namespace
}  // namespace fbufs
