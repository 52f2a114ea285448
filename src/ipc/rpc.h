// Synchronous cross-domain invocation (Mach-IPC / x-kernel-proxy class).
//
// The simulator's control-transfer path: a call from one domain into a
// service registered by another charges the round-trip crossing latency
// (kernel/user or user/user), counts statistics, and gives interested
// layers (the fbuf system) a chance to piggyback data — deallocation
// notices ride on these messages exactly as §3.3 of the paper describes.
#ifndef SRC_IPC_RPC_H_
#define SRC_IPC_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/vm/machine.h"
#include "src/vm/types.h"

namespace fbufs {

class Dispatcher;

using ServiceId = std::uint32_t;

// Small by-value argument block carried by a call (fits in registers /
// message body; large data travels as fbufs, never here).
struct RpcArgs {
  std::uint64_t word[6] = {0, 0, 0, 0, 0, 0};
};

class Rpc {
 public:
  explicit Rpc(Machine* machine) : machine_(machine) {}

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  using Handler = std::function<Status(RpcArgs&)>;

  // Registers |svc| as implemented by |server|. Re-registration replaces.
  void RegisterService(Domain& server, ServiceId svc, Handler handler);

  // Synchronous call: charges the crossing latency for the (caller, server)
  // pair, runs piggyback hooks for both directions (call and reply), then
  // invokes the handler. Calls within one domain are plain procedure calls
  // (no latency, no hooks).
  Status Call(Domain& caller, ServiceId svc, RpcArgs& args);

  // Charges one crossing without invoking anything (used by layers that
  // model a message send whose processing is accounted elsewhere).
  void ChargeCrossing(Domain& a, Domain& b);

  // Generic synchronous invocation: charges the crossing, runs piggyback
  // hooks for both directions around |fn| (which executes "in" |callee|).
  // Same-domain calls degenerate to a plain call. Used by the protocol
  // graph's proxy objects.
  Status Invoke(Domain& caller, Domain& callee, const std::function<Status()>& fn);

  // Piggyback hooks run on every cross-domain call, once per direction:
  // hook(from, to) for the request and hook(to, from) for the reply.
  using PiggybackHook = std::function<void(Domain& from, Domain& to)>;
  void AddPiggybackHook(PiggybackHook hook) { hooks_.push_back(std::move(hook)); }

  // --- Evented path (multicore) ----------------------------------------------
  // With a dispatcher attached and num_cpus > 1, ChargeCrossingAsync stops
  // charging on the caller: the crossing runs as a work item on the callee
  // domain's dispatch queue (on its CPU lane), and the completion callback
  // fires with the finish time on that lane. Without a dispatcher — or on a
  // single-CPU machine — it degenerates to the exact synchronous path, so
  // every pre-multicore schedule is preserved. The transfer rings' doorbells
  // are its caller.
  void AttachDispatcher(Dispatcher* d) { dispatcher_ = d; }
  Dispatcher* dispatcher() { return dispatcher_; }

  using CrossingDone = std::function<void(SimTime)>;
  void ChargeCrossingAsync(Domain& a, Domain& b, CrossingDone done = {});

  Machine& machine() { return *machine_; }

 private:
  struct Service {
    DomainId server = kInvalidDomainId;
    Handler handler;
  };

  bool UseSyncPath() const;

  Machine* machine_;
  Dispatcher* dispatcher_ = nullptr;
  std::map<ServiceId, Service> services_;
  std::vector<PiggybackHook> hooks_;
};

}  // namespace fbufs

#endif  // SRC_IPC_RPC_H_
