#include "src/ring/transfer_ring.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/fbuf/fbuf_system.h"
#include "src/ipc/dispatch.h"
#include "src/ipc/rpc.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/sim/trace.h"

namespace fbufs {

TransferRing::TransferRing(Machine* machine, FbufSystem* fsys, Rpc* rpc,
                           EventLoop* loop, Domain& producer, Domain& consumer,
                           RingConfig config, std::string name)
    : machine_(machine),
      fsys_(fsys),
      rpc_(rpc),
      loop_(loop),
      producer_(producer.id()),
      consumer_(consumer.id()),
      cfg_(config),
      name_(std::move(name)) {
  assert(loop_ != nullptr && "rings drain through the event loop");
  assert(std::has_single_bit(cfg_.sq_slots) &&
         "SQ slot count must be a power of two");
  assert(std::has_single_bit(cfg_.cq_slots) &&
         "CQ slot count must be a power of two");
  assert(cfg_.doorbell_batch >= 1);
  assert(cfg_.drain_budget >= 1);
  assert(producer_ != consumer_ && "a ring pairs two distinct domains");
  slots_.resize(cfg_.sq_slots);
}

void TransferRing::SampleDepth() {
  MetricsRegistry* m = machine_->metrics();
  if (m != nullptr) {
    m->Sample(name_ + "/sq_depth", machine_->clock().Now(),
              static_cast<std::int64_t>(SqDepth()));
  }
}

Status TransferRing::SubmitHandoff(AttrPathId path, Body body, Abort abort,
                                   Done done) {
  Entry e;
  e.op = Op::kHandoff;
  e.path = path;
  e.body = std::move(body);
  e.abort = std::move(abort);
  e.done = std::move(done);
  return Submit(std::move(e));
}

Status TransferRing::SubmitDealloc(FbufId fb, AttrPathId path) {
  Entry e;
  e.op = Op::kDealloc;
  e.fb = fb;
  e.path = path;
  return Submit(std::move(e));
}

Status TransferRing::Submit(Entry e) {
  if (dead_) {
    return Status::kNotFound;
  }
  if (SqDepth() >= cfg_.sq_slots) {
    stats_.sq_full++;
    return Status::kExhausted;
  }
  {
    // The descriptor write: a few cache lines into shared memory, charged to
    // the producer on whatever lane it is running.
    LayerScope layer(machine_->attribution(), CostDomain::kRing);
    ActorScope actor(machine_->attribution(), producer_);
    PathScope pscope(machine_->attribution(), e.path);
    machine_->clock().Advance(machine_->costs().ring_entry_ns);
  }
  machine_->trace().Emit(TraceCategory::kIpc, "ring-submit", producer_,
                         static_cast<std::uint64_t>(e.op));
  e.submitted = machine_->clock().Now();
  slots_[sq_tail_ & (cfg_.sq_slots - 1)] = std::move(e);
  sq_tail_++;
  stats_.submitted++;
  SampleDepth();
  if (state_ == State::kIdle) {
    if (SqDepth() >= cfg_.doorbell_batch) {
      RingDoorbell(false);
    } else {
      ArmFlushTimer();
    }
  }
  // In-flight or armed consumers coalesce: the pending doorbell or the
  // running drain will pick this entry up with no further crossing.
  return Status::kOk;
}

void TransferRing::Flush() {
  if (!dead_ && state_ == State::kIdle && !SqEmpty()) {
    RingDoorbell(true);
  }
}

void TransferRing::ArmFlushTimer() {
  if (flush_timer_armed_ || dead_) {
    return;
  }
  flush_timer_armed_ = true;
  const SimTime at =
      std::max(loop_->Now(), machine_->clock().Now()) + cfg_.flush_delay_ns;
  ScheduleOn(*loop_, *machine_, machine_->active_cpu(), at,
             "ring-flush/" + name_, [this] {
               flush_timer_armed_ = false;
               if (!dead_ && state_ == State::kIdle && !SqEmpty()) {
                 RingDoorbell(true);
               }
             });
}

void TransferRing::RingDoorbell(bool from_flush) {
  state_ = State::kDoorbellInFlight;
  stats_.doorbells++;
  if (from_flush) {
    stats_.flush_doorbells++;
  }
  {
    // MMIO-class store telling the consumer the SQ went non-empty.
    LayerScope layer(machine_->attribution(), CostDomain::kRing);
    ActorScope actor(machine_->attribution(), producer_);
    machine_->clock().Advance(machine_->costs().ring_doorbell_ns);
  }
  machine_->trace().Emit(TraceCategory::kIpc, "ring-doorbell", producer_,
                         SqDepth());
  MetricsRegistry* m = machine_->metrics();
  if (m != nullptr) {
    m->GetHistogram(name_ + "/batch")->Observe(SqDepth());
    m->Sample(name_ + "/doorbells", machine_->clock().Now(),
              static_cast<std::int64_t>(stats_.doorbells));
  }
  Domain* p = machine_->domain(producer_);
  Domain* c = machine_->domain(consumer_);
  if (p == nullptr || c == nullptr || !p->alive() || !c->alive()) {
    state_ = State::kIdle;
    return;
  }
  // The one crossing a batch pays. Lands on the consumer's dispatch queue
  // under the multicore model; degenerates to a synchronous charge otherwise.
  rpc_->ChargeCrossingAsync(*p, *c, [this](SimTime at) { OnDoorbell(at); });
}

void TransferRing::OnDoorbell(SimTime at) {
  if (dead_) {
    return;
  }
  state_ = State::kArmed;
  ScheduleDrain(at);
}

void TransferRing::ScheduleDrain(SimTime ready) {
  if (drain_scheduled_ || dead_) {
    return;
  }
  drain_scheduled_ = true;
  Dispatcher* d = rpc_->dispatcher();
  if (d != nullptr && machine_->num_cpus() > 1) {
    d->RunInDomain(consumer_, ready, "ring-drain/" + name_,
                   [this] { DrainPass(); });
  } else {
    ScheduleOn(*loop_, *machine_, 0, std::max(ready, machine_->clock().Now()),
               "ring-drain/" + name_, [this] { DrainPass(); });
  }
}

void TransferRing::DrainPass() {
  drain_scheduled_ = false;
  if (dead_) {
    return;
  }
  std::vector<Completion> batch;
  std::uint32_t consumed = 0;
  while (!SqEmpty() && consumed < cfg_.drain_budget &&
         cq_inflight_ < cfg_.cq_slots) {
    Entry e = std::move(slots_[sq_head_ & (cfg_.sq_slots - 1)]);
    sq_head_++;
    {
      // The descriptor read on the consumer side.
      LayerScope layer(machine_->attribution(), CostDomain::kRing);
      ActorScope actor(machine_->attribution(), consumer_);
      PathScope pscope(machine_->attribution(), e.path);
      machine_->clock().Advance(machine_->costs().ring_entry_ns);
    }
    const SimTime now = machine_->clock().Now();
    const SimTime waited = now > e.submitted ? now - e.submitted : 0;
    path_occupancy_ns_[e.path] += waited;
    MetricsRegistry* m = machine_->metrics();
    if (m != nullptr) {
      m->GetHistogram(name_ + "/sq_wait_ns")->Observe(waited);
    }
    Status st = Status::kOk;
    if (e.op == Op::kDealloc) {
      fsys_->ApplyRingNotice(producer_, consumer_, e.fb);
    } else if (e.body) {
      st = e.body();
    }
    stats_.consumed++;
    consumed++;
    cq_inflight_++;
    batch.push_back(Completion{st, e.path, std::move(e.done)});
  }
  SampleDepth();
  const SimTime after = machine_->clock().Now();
  if (!batch.empty()) {
    ScheduleCompletions(std::move(batch), after);
  }
  if (!SqEmpty()) {
    if (cq_inflight_ >= cfg_.cq_slots) {
      // CQ full: resume once the producer harvests. Rescheduling now would
      // spin at the same simulated instant making no progress.
      drain_waiting_cq_ = true;
    } else {
      // Budget exhausted: stay armed, keep draining — no new doorbell.
      ScheduleDrain(after);
    }
  } else {
    state_ = State::kIdle;
  }
}

void TransferRing::ScheduleCompletions(std::vector<Completion> batch,
                                       SimTime ready) {
  auto run = [this, batch = std::move(batch)]() mutable {
    HarvestCompletions(batch);
  };
  Dispatcher* d = rpc_->dispatcher();
  if (d != nullptr && machine_->num_cpus() > 1) {
    d->RunInDomain(producer_, ready, "ring-complete/" + name_, std::move(run));
  } else {
    ScheduleOn(*loop_, *machine_, 0, std::max(ready, machine_->clock().Now()),
               "ring-complete/" + name_, std::move(run));
  }
}

void TransferRing::HarvestCompletions(std::vector<Completion>& batch) {
  for (Completion& c : batch) {
    {
      // The CQE read back on the producer side.
      LayerScope layer(machine_->attribution(), CostDomain::kRing);
      ActorScope actor(machine_->attribution(), producer_);
      PathScope pscope(machine_->attribution(), c.path);
      machine_->clock().Advance(machine_->costs().ring_entry_ns);
    }
    if (cq_inflight_ > 0) {
      cq_inflight_--;
    }
    if (c.done) {
      c.done(c.status, machine_->clock().Now());
    }
  }
  if (drain_waiting_cq_ && !dead_) {
    drain_waiting_cq_ = false;
    ScheduleDrain(machine_->clock().Now());
  }
}

void TransferRing::OnDomainTerminated(Domain& d) {
  if (dead_ || (d.id() != producer_ && d.id() != consumer_)) {
    return;
  }
  dead_ = true;
  // Kernel-side teardown: no cost charges (cleanup is background work, same
  // as FbufSystem's termination sweep). Notices still apply — §3.3 teardown
  // settles what the dead domain owed or was owed; ApplyRingNotice handles
  // the defunct-allocator case by destroying instead of free-listing.
  while (!SqEmpty()) {
    Entry e = std::move(slots_[sq_head_ & (cfg_.sq_slots - 1)]);
    sq_head_++;
    if (e.op == Op::kDealloc) {
      fsys_->ApplyRingNotice(producer_, consumer_, e.fb);
      stats_.consumed++;
    } else {
      if (e.abort) {
        e.abort();
      }
      stats_.aborted++;
      if (e.done) {
        e.done(Status::kNotFound, machine_->clock().Now());
      }
    }
  }
  SampleDepth();
}

}  // namespace fbufs
