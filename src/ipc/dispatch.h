// Machine-level dispatcher: binds dispatch queues to a Machine's CPU lanes.
//
// The sim-layer DispatchQueue knows nothing about Machines or attribution;
// this layer owns the wiring. A Dispatcher keeps one queue per CPU lane.
// Work routed through a Dispatcher runs with the machine's active CPU
// switched to the servicing lane — clock charges, trace timestamps and
// attributed time all land on that lane — and pays the modeled
// per-dispatch scheduling cost under CostDomain::kDispatch.
//
// Placement policy: receive processing steers by VCI (RssSteer): one flow
// always lands on one lane, distinct flows spread. Cross-domain crossings
// are not dispatched: they stay synchronous on the lane that makes them.
#ifndef SRC_IPC_DISPATCH_H_
#define SRC_IPC_DISPATCH_H_

#include <cstdint>
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

  // Runs |work| on CPU lane |cpu|, no earlier than |ready|, serialized
  // behind everything already queued for that lane's queue. |work| executes
  // with the lane active and is charged the per-dispatch cost first; |done|
  // (optional) fires with the completion time on the lane.
  void RunOnCpu(std::uint32_t cpu, SimTime ready, std::string label,
                DispatchQueue::Work work, DispatchQueue::Done done = {});

  // Lane |cpu|'s queue, created on first use.
  DispatchQueue& QueueForCpu(std::uint32_t cpu);

  // Aggregate queueing delay across every queue this dispatcher owns: the
  // scheduler-induced latency of the run, reported by the multicore bench.
  SimTime TotalWaitNs() const;
  SimTime MaxWaitNs() const;

 private:
  Machine* machine_;
  EventLoop* loop_;
  std::vector<std::unique_ptr<DispatchQueue>> cpu_queues_;  // index = lane
};

}  // namespace fbufs

#endif  // SRC_IPC_DISPATCH_H_
