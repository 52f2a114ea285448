#include "src/ipc/rpc.h"

#include <cassert>
#include <utility>

#include "src/ipc/dispatch.h"

namespace fbufs {

void Rpc::RegisterService(Domain& server, ServiceId svc, Handler handler) {
  services_[svc] = Service{server.id(), std::move(handler)};
}

void Rpc::ChargeCrossing(Domain& a, Domain& b) {
  if (a.id() == b.id()) {
    return;
  }
  LayerScope layer(machine_->attribution(), CostDomain::kIpc);
  ActorScope actor(machine_->attribution(), a.id());
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

Status Rpc::Call(Domain& caller, ServiceId svc, RpcArgs& args) {
  auto it = services_.find(svc);
  if (it == services_.end()) {
    return Status::kNotFound;
  }
  Domain* server = machine_->domain(it->second.server);
  assert(server != nullptr);
  if (!server->alive()) {
    return Status::kNotFound;
  }
  if (server->id() != caller.id()) {
    TraceSpan span(machine_->trace(), TraceCategory::kIpc, "ipc-call", caller.id(),
                   server->id());
    ChargeCrossing(caller, *server);
    for (const PiggybackHook& hook : hooks_) {
      hook(caller, *server);  // request direction
    }
  }
  const Status st = it->second.handler(args);
  if (server->id() != caller.id()) {
    for (const PiggybackHook& hook : hooks_) {
      hook(*server, caller);  // reply direction
    }
  }
  return st;
}

bool Rpc::UseSyncPath() const {
  return dispatcher_ == nullptr || machine_->num_cpus() <= 1;
}

void Rpc::ChargeCrossingAsync(Domain& a, Domain& b, CrossingDone done) {
  if (UseSyncPath() || a.id() == b.id()) {
    ChargeCrossing(a, b);
    if (done) {
      done(machine_->clock().Now());
    }
    return;
  }
  const SimTime ready = machine_->clock().Now();
  const DomainId from = a.id();
  const DomainId to = b.id();
  dispatcher_->RunInDomain(
      to, ready,
      "crossing/" + std::to_string(from) + ">" + std::to_string(to),
      [this, from, to] {
        // ChargeCrossing lands on the callee's lane: the dispatch queue's
        // context hooks have made it the active CPU.
        ChargeCrossing(*machine_->domain(from), *machine_->domain(to));
      },
      [done = std::move(done)](SimTime finish) {
        if (done) {
          done(finish);
        }
      });
}

}  // namespace fbufs
