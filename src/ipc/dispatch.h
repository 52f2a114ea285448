// Machine-level dispatcher: binds dispatch queues to a Machine's CPU lanes.
//
// The sim-layer DispatchQueue knows nothing about Machines or attribution;
// this layer owns the wiring. A Dispatcher keeps one queue per CPU lane plus
// one queue per protection domain (each domain's queue is bound to a fixed
// lane, like a single-threaded server process pinned to a CPU). Work routed
// through a Dispatcher runs with the machine's active CPU switched to the
// servicing lane — clock charges, trace timestamps and attribution cells all
// land on that lane — and pays the modeled per-dispatch scheduling cost
// under CostDomain::kDispatch.
//
// Placement policy: a domain runs on CpuForDomain(d), round-robin by domain
// id. Receive processing steers by VCI (RssSteer): one flow always lands on
// one lane, distinct flows spread.
#ifndef SRC_IPC_DISPATCH_H_
#define SRC_IPC_DISPATCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/dispatch.h"
#include "src/sim/event_loop.h"
#include "src/vm/machine.h"

namespace fbufs {

class Dispatcher {
 public:
  Dispatcher(Machine* machine, EventLoop* loop);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  Machine& machine() { return *machine_; }

  std::uint32_t CpuForDomain(DomainId d) const {
    return static_cast<std::uint32_t>(d) % machine_->num_cpus();
  }

  // Runs |work| on CPU lane |cpu|, no earlier than |ready|, serialized
  // behind everything already queued for that lane's queue. |work| executes
  // with the lane active and is charged the per-dispatch cost first; |done|
  // (optional) fires with the completion time on the lane.
  void RunOnCpu(std::uint32_t cpu, SimTime ready, std::string label,
                DispatchQueue::Work work, DispatchQueue::Done done = {});

  // Runs |work| in |domain|'s queue (on its bound CPU).
  void RunInDomain(DomainId domain, SimTime ready, std::string label,
                   DispatchQueue::Work work, DispatchQueue::Done done = {});

  DispatchQueue& QueueForCpu(std::uint32_t cpu);
  DispatchQueue& QueueForDomain(DomainId d);

  // Aggregate queueing delay across every queue this dispatcher owns: the
  // scheduler-induced latency of the run, reported by the multicore bench.
  SimTime TotalWaitNs() const;
  SimTime MaxWaitNs() const;

  // Queueing delay sliced by the I/O path that was active when the work was
  // submitted (kAttrNoPath collects untagged submissions). Waits are latency,
  // not CPU time, so they sit beside the attribution cells, keyed the same
  // way the profiler keys its path coordinate.
  const std::map<AttrPathId, SimTime>& PathWaitNs() const { return path_wait_ns_; }

 private:
  // Wraps |work| with the active-CPU switch and the dispatch cost, and
  // enqueues it on |q|.
  void Submit(DispatchQueue& q, SimTime ready, std::string label,
              DispatchQueue::Work work, DispatchQueue::Done done);
  std::unique_ptr<DispatchQueue> MakeQueue(std::uint32_t cpu, const std::string& name);

  Machine* machine_;
  EventLoop* loop_;
  std::map<AttrPathId, SimTime> path_wait_ns_;
  std::vector<std::unique_ptr<DispatchQueue>> cpu_queues_;   // index = lane
  std::map<DomainId, std::unique_ptr<DispatchQueue>> domain_queues_;
};

}  // namespace fbufs

#endif  // SRC_IPC_DISPATCH_H_
