#include "src/ipc/rpc.h"

namespace fbufs {

void Rpc::ChargeCrossing(Domain& a, Domain& b) {
  if (a.id() == b.id()) {
    return;
  }
  LayerScope layer(machine_->attribution(), CostDomain::kIpc);
  const CostParams& c = machine_->costs();
  const bool kernel_involved = a.id() == kKernelDomainId || b.id() == kKernelDomainId;
  machine_->trace().Emit(TraceCategory::kIpc, "crossing", a.id(), b.id());
  machine_->clock().Advance(kernel_involved ? c.ipc_kernel_user_ns : c.ipc_user_user_ns);
  machine_->stats().ipc_calls++;
}

Status Rpc::Invoke(Domain& caller, Domain& callee, const std::function<Status()>& fn) {
  if (caller.id() == callee.id()) {
    return fn();
  }
  TraceSpan span(machine_->trace(), TraceCategory::kIpc, "ipc-invoke", caller.id(),
                 callee.id());
  ChargeCrossing(caller, callee);
  for (const PiggybackHook& hook : hooks_) {
    hook(caller, callee);
  }
  const Status st = fn();
  for (const PiggybackHook& hook : hooks_) {
    hook(callee, caller);
  }
  return st;
}

}  // namespace fbufs
