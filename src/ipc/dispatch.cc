#include "src/ipc/dispatch.h"

#include <cassert>
#include <utility>

namespace fbufs {

Dispatcher::Dispatcher(Machine* machine, EventLoop* loop)
    : machine_(machine), loop_(loop) {
  cpu_queues_.resize(machine_->num_cpus());
}

std::unique_ptr<DispatchQueue> Dispatcher::MakeQueue(std::uint32_t cpu,
                                                     const std::string& name) {
  auto q = std::make_unique<DispatchQueue>(loop_, &machine_->cpu_lane(cpu), name);
  DispatchQueue* raw = q.get();
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
  q->SetWaitObserver([this, raw](SimTime start, SimTime wait) {
    MetricsRegistry* m = machine_->metrics();
    if (m != nullptr) {
      m->GetHistogram("dispatch.wait_ns/" + raw->name())->Observe(wait);
      m->Sample("dispatch.depth/" + raw->name(), start,
                static_cast<std::int64_t>(raw->depth()));
    }
  });
  return q;
}

DispatchQueue& Dispatcher::QueueForCpu(std::uint32_t cpu) {
  assert(cpu < cpu_queues_.size());
  if (cpu_queues_[cpu] == nullptr) {
    cpu_queues_[cpu] = MakeQueue(
        cpu, machine_->name() + "/cpu" + std::to_string(cpu));
  }
  return *cpu_queues_[cpu];
}

DispatchQueue& Dispatcher::QueueForDomain(DomainId d) {
  auto it = domain_queues_.find(d);
  if (it == domain_queues_.end()) {
    const std::uint32_t cpu = CpuForDomain(d);
    it = domain_queues_
             .emplace(d, MakeQueue(cpu, machine_->name() + "/dom" + std::to_string(d)))
             .first;
  }
  return *it->second;
}

void Dispatcher::Submit(DispatchQueue& q, SimTime ready, std::string label,
                        DispatchQueue::Work work, DispatchQueue::Done done) {
  // The path active at submission time owns whatever queueing delay the item
  // accumulates; the work itself re-establishes its own scopes when it runs.
  const AttrPathId path = machine_->attribution().path();
  q.Enqueue(
      ready, std::move(label),
      [this, work = std::move(work)] {
        {
          // The run-queue pop and context switch to the servicing thread.
          LayerScope layer(machine_->attribution(), CostDomain::kDispatch);
          machine_->clock().Advance(machine_->costs().dispatch_ns);
        }
        work();
      },
      std::move(done),
      [this, path](SimTime wait) { path_wait_ns_[path] += wait; });
}

void Dispatcher::RunOnCpu(std::uint32_t cpu, SimTime ready, std::string label,
                          DispatchQueue::Work work, DispatchQueue::Done done) {
  Submit(QueueForCpu(cpu), ready, std::move(label), std::move(work), std::move(done));
}

void Dispatcher::RunInDomain(DomainId domain, SimTime ready, std::string label,
                             DispatchQueue::Work work, DispatchQueue::Done done) {
  Submit(QueueForDomain(domain), ready, std::move(label), std::move(work),
         std::move(done));
}

SimTime Dispatcher::TotalWaitNs() const {
  SimTime total = 0;
  for (const auto& q : cpu_queues_) {
    if (q != nullptr) {
      total += q->total_wait_ns();
    }
  }
  for (const auto& [d, q] : domain_queues_) {
    total += q->total_wait_ns();
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
  for (const auto& [d, q] : domain_queues_) {
    if (q->max_wait_ns() > m) {
      m = q->max_wait_ns();
    }
  }
  return m;
}

}  // namespace fbufs
