// Shared-memory transfer rings: batched cross-domain fbuf handoffs.
//
// A TransferRing pairs a producer domain with a consumer domain through a
// pair of fixed-size shared-memory queues, io_uring style: a submission
// queue (SQ) of handoff descriptors written by the producer and read by the
// consumer, and a completion queue (CQ) flowing the other way. Descriptors
// carry either an fbuf handoff (the control transfer of a delivery whose
// data pages already moved via FbufSystem::Transfer) or a §3.3 deallocation
// notice. Because both queues live in memory mapped into both domains,
// writing a descriptor costs a few cache lines (ring_entry_ns), not an IPC.
//
// The doorbell is where the crossing cost lives. The consumer is idle (not
// watching the ring) or armed (a drain is scheduled or running). Only an
// idle consumer needs a doorbell: one synchronous Rpc::ChargeCrossing,
// charged where the producer runs, which arms the consumer. Submissions that
// find the consumer armed coalesce for free, so a burst of K transfers pays
// one crossing: crossings/transfer -> 1/K, which is the whole point.
// A flush timer bounds the latency of a sub-batch tail: if fewer than
// doorbell_batch entries accumulate, the doorbell rings after
// flush_delay_ns anyway.
//
// Backpressure: a full SQ refuses the submission with Status::kExhausted —
// retryable per FlowBackoff::IsBackpressure — rather than queueing
// unboundedly. A full CQ pauses draining until the producer harvests
// completions.
//
// Determinism: all deferred work runs through the EventLoop with
// (time, seq) keys; same seed, same schedule, same JSON.
#ifndef SRC_RING_TRANSFER_RING_H_
#define SRC_RING_TRANSFER_RING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/fbuf/fbuf.h"
#include "src/sim/event_loop.h"
#include "src/vm/domain.h"
#include "src/vm/machine.h"

namespace fbufs {

class FbufSystem;
class Rpc;

struct RingConfig {
  std::uint32_t sq_slots = 64;       // power of two
  std::uint32_t cq_slots = 64;       // power of two
  std::uint32_t doorbell_batch = 8;  // entries accumulated while idle before ringing
  std::uint32_t drain_budget = 16;   // max entries consumed per drain pass
  SimTime flush_delay_ns = 50000;    // sub-batch tail latency bound
};

class TransferRing {
 public:
  enum class Op : std::uint8_t {
    kHandoff,  // control transfer of a delivery (body runs in the consumer)
    kDealloc,  // §3.3 deallocation notice (producer freed consumer's fbuf)
  };

  // Runs in the consumer when the entry is drained.
  using Body = std::function<Status()>;
  // Best-effort cleanup if the ring dies with the entry still queued.
  using Abort = std::function<void()>;
  // Fires on the producer side when the completion is harvested.
  using Done = std::function<void(Status, SimTime)>;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t consumed = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t flush_doorbells = 0;  // doorbells rung by the flush timer
    std::uint64_t sq_full = 0;          // submissions refused (backpressure)
    std::uint64_t aborted = 0;          // handoffs dropped at teardown
  };

  TransferRing(Machine* machine, FbufSystem* fsys, Rpc* rpc, EventLoop* loop,
               Domain& producer, Domain& consumer, RingConfig config,
               std::string name);

  TransferRing(const TransferRing&) = delete;
  TransferRing& operator=(const TransferRing&) = delete;

  // Queues a handoff descriptor. Charges the producer one ring_entry_ns slot
  // write; full SQ returns Status::kExhausted without side effects.
  Status SubmitHandoff(AttrPathId path, Body body, Abort abort = {},
                       Done done = {});

  // Queues a §3.3 dealloc notice for |fb| (owned by the consumer, freed by
  // the producer). Applied via FbufSystem::ApplyRingNotice when drained.
  Status SubmitDealloc(FbufId fb, AttrPathId path);

  // Rings the doorbell now if the consumer is idle and entries are queued
  // (benches use this to cut the flush-timer tail off a measured burst).
  void Flush();

  // Either endpoint died: drain the SQ synchronously — notices still apply
  // (§3.3 teardown delivers what the dead domain owed), handoffs abort.
  void OnDomainTerminated(Domain& d);

  DomainId producer() const { return producer_; }
  DomainId consumer() const { return consumer_; }
  const std::string& name() const { return name_; }
  const Stats& stats() const { return stats_; }
  bool dead() const { return dead_; }
  std::uint32_t SqDepth() const { return sq_tail_ - sq_head_; }
  bool SqEmpty() const { return sq_tail_ == sq_head_; }

  // Time descriptors sat in the SQ (submit -> consume), sliced by path:
  // ring-occupancy latency, reported beside dispatch waits in bench JSON.
  const std::map<AttrPathId, SimTime>& PathOccupancyNs() const {
    return path_occupancy_ns_;
  }

 private:
  enum class State : std::uint8_t { kIdle, kArmed };

  struct Entry {
    Op op = Op::kHandoff;
    FbufId fb = kInvalidFbufId;
    AttrPathId path = kAttrNoPath;
    SimTime submitted = 0;
    Body body;
    Abort abort;
    Done done;
  };

  struct Completion {
    Status status = Status::kOk;
    AttrPathId path = kAttrNoPath;
    Done done;
  };

  Status Submit(Entry e);
  void RingDoorbell(bool from_flush);
  void ArmFlushTimer();
  void ScheduleDrain(SimTime ready);
  void DrainPass();
  void ScheduleCompletions(std::vector<Completion> batch, SimTime ready);
  void HarvestCompletions(std::vector<Completion>& batch);
  void SampleDepth();

  Machine* machine_;
  FbufSystem* fsys_;
  Rpc* rpc_;
  EventLoop* loop_;
  DomainId producer_;
  DomainId consumer_;
  RingConfig cfg_;
  std::string name_;

  std::vector<Entry> slots_;
  // Free-running indices; slot = index & (sq_slots - 1). Depth never exceeds
  // sq_slots, so wraparound of the 32-bit counters is harmless.
  std::uint32_t sq_head_ = 0;
  std::uint32_t sq_tail_ = 0;
  std::uint32_t cq_inflight_ = 0;

  State state_ = State::kIdle;
  bool drain_scheduled_ = false;
  bool drain_waiting_cq_ = false;
  bool flush_timer_armed_ = false;
  bool dead_ = false;

  Stats stats_;
  std::map<AttrPathId, SimTime> path_occupancy_ns_;
};

}  // namespace fbufs

#endif  // SRC_RING_TRANSFER_RING_H_
