// Synchronous cross-domain invocation (Mach-IPC / x-kernel-proxy class).
//
// The simulator's control-transfer path: an invocation from one domain into
// another charges the round-trip crossing latency (kernel/user or
// user/user), counts statistics, and gives interested layers (the fbuf
// system) a chance to piggyback data — deallocation notices ride on these
// messages exactly as §3.3 of the paper describes. Crossings are synchronous
// on every machine: they charge the caller's active CPU lane.
#ifndef SRC_IPC_RPC_H_
#define SRC_IPC_RPC_H_

#include <functional>
#include <vector>

#include "src/vm/machine.h"
#include "src/vm/types.h"

namespace fbufs {

class Rpc {
 public:
  explicit Rpc(Machine* machine) : machine_(machine) {}

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  // Charges one crossing without invoking anything (used by layers that
  // model a message send whose processing is accounted elsewhere).
  void ChargeCrossing(Domain& a, Domain& b);

  // Synchronous invocation: charges the crossing, runs piggyback hooks for
  // both directions (call and reply) around |fn|, which executes "in"
  // |callee|, and returns its status. Calls within one domain are plain
  // procedure calls (no latency, no hooks). Used by the protocol graph's
  // proxy objects.
  Status Invoke(Domain& caller, Domain& callee, const std::function<Status()>& fn);

  // Piggyback hooks run on every cross-domain call, once per direction:
  // hook(from, to) for the request and hook(to, from) for the reply.
  using PiggybackHook = std::function<void(Domain& from, Domain& to)>;
  void AddPiggybackHook(PiggybackHook hook) { hooks_.push_back(std::move(hook)); }

  Machine& machine() { return *machine_; }

 private:
  Machine* machine_;
  std::vector<PiggybackHook> hooks_;
};

}  // namespace fbufs

#endif  // SRC_IPC_RPC_H_
