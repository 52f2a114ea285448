// SwpWorld: the two-peer SWP-over-lossy-channels world, packaged for fault
// campaigns.
//
// One machine, two domains, an SWP sender/receiver pair joined by two
// LossyChannels (independent SplitMix64 streams for the data and ack
// directions — that independence is what makes kAckPathOnlyLoss a precise
// instrument), a sink, and the FlowDriver that keeps the window full on the
// event loop. The swp_goodput bench, the campaigns and the tests all build
// this one conversation (the bench with its own fixed-RTO producer).
#ifndef SRC_FAULT_SWP_WORLD_H_
#define SRC_FAULT_SWP_WORLD_H_

#include <cstdint>

#include "src/fault/flow_driver.h"
#include "src/proto/swp.h"
#include "src/proto/test_protocols.h"
#include "src/sim/event_loop.h"
#include "src/vm/machine.h"

namespace fbufs {

struct SwpWorldConfig {
  SimTime rto = 2 * kMillisecond;
  std::uint32_t fwd_loss = 0;  // data-direction drop percent
  std::uint32_t rev_loss = 0;  // ack-direction drop percent
  // Simulated physical memory (pressure campaigns shrink this).
  std::uint32_t phys_frames = 16384;
  // Producer stall watchdog: no accepted message for this long (loop time)
  // fails the producer instead of retrying forever.
  SimTime stall_horizon = 250 * kMillisecond;
};

struct SwpWorld {
  static constexpr std::uint32_t kWindow = 8;
  // Seeds of the data- and ack-direction loss streams.
  static constexpr std::uint64_t kFwdSeed = 11;
  static constexpr std::uint64_t kRevSeed = 13;

  explicit SwpWorld(const SwpWorldConfig& cfg = SwpWorldConfig());

  // Keeps the window full until |messages| of |bytes| each were accepted.
  // Backpressure (window full, pool exhausted, quota) parks the producer on
  // the shared capped-exponential backoff (initial delay = one RTO, by which
  // time the retransmission timer has fired and surviving acks opened the
  // window) and retries; the stall watchdog fails it after |stall_horizon|
  // without progress. Hard errors stop it immediately.
  // Call once, then run |loop| to quiescence.
  void StartProducer(int messages, std::uint64_t bytes) {
    producer_.Start(messages, bytes);
  }

  int accepted() const { return producer_.accepted(); }
  std::uint64_t producer_parks() const { return producer_.parks(); }
  // Watchdog verdict: the producer gave up without reaching its target.
  bool producer_stalled() const { return producer_.stalled(); }
  // A non-backpressure error stopped the producer.
  bool producer_failed() const { return producer_.failed(); }

  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  ProtocolStack stack;
  Domain* sender_domain;
  Domain* receiver_domain;
  PathId tx_hdr;
  PathId rx_hdr;
  PathId data;
  SwpProtocol sender;
  SwpProtocol receiver;
  LossyChannel fwd;  // data direction
  LossyChannel rev;  // ack direction
  SinkProtocol sink;
  EventLoop loop;

 private:
  FlowDriver producer_;
};

}  // namespace fbufs

#endif  // SRC_FAULT_SWP_WORLD_H_
