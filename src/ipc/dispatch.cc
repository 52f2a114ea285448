#include "src/ipc/dispatch.h"

#include <cassert>
#include <utility>

namespace fbufs {

Dispatcher::Dispatcher(Machine* machine, EventLoop* loop)
    : machine_(machine), loop_(loop) {
  cpu_queues_.resize(machine_->num_cpus());
}

DispatchQueue& Dispatcher::QueueForCpu(std::uint32_t cpu) {
  assert(cpu < cpu_queues_.size());
  if (cpu_queues_[cpu] != nullptr) {
    return *cpu_queues_[cpu];
  }
  cpu_queues_[cpu] = std::make_unique<DispatchQueue>(
      loop_, &machine_->cpu_lane(cpu), machine_->name() + "/cpu" + std::to_string(cpu));
  DispatchQueue* q = cpu_queues_[cpu].get();
  // Every item runs with its lane active; the previous lane is restored on
  // exit. Saved in the enter hook (items never nest — the queue is serial —
  // so one slot per queue suffices).
  auto prev = std::make_shared<std::uint32_t>(0);
  q->SetContextHooks(
      [this, cpu, prev] {
        *prev = machine_->active_cpu();
        machine_->SetActiveCpu(cpu);
      },
      [this, prev] { machine_->SetActiveCpu(*prev); });
  q->SetWaitObserver([this, q](SimTime start, SimTime wait) {
    MetricsRegistry* m = machine_->metrics();
    if (m != nullptr) {
      m->GetHistogram("dispatch.wait_ns/" + q->name())->Observe(wait);
      m->Sample("dispatch.depth/" + q->name(), start,
                static_cast<std::int64_t>(q->depth()));
    }
  });
  return *q;
}

void Dispatcher::RunOnCpu(std::uint32_t cpu, SimTime ready, std::string label,
                          DispatchQueue::Work work, DispatchQueue::Done done) {
  QueueForCpu(cpu).Enqueue(
      ready, std::move(label),
      [this, work = std::move(work)] {
        {
          // The run-queue pop and context switch to the servicing thread.
          LayerScope layer(machine_->attribution(), CostDomain::kDispatch);
          machine_->clock().Advance(machine_->costs().dispatch_ns);
        }
        work();
      },
      std::move(done));
}

SimTime Dispatcher::TotalWaitNs() const {
  SimTime total = 0;
  for (const auto& q : cpu_queues_) {
    if (q != nullptr) {
      total += q->total_wait_ns();
    }
  }
  return total;
}

SimTime Dispatcher::MaxWaitNs() const {
  SimTime m = 0;
  for (const auto& q : cpu_queues_) {
    if (q != nullptr && q->max_wait_ns() > m) {
      m = q->max_wait_ns();
    }
  }
  return m;
}

}  // namespace fbufs
