// Tests for the IPC layer: crossing latency accounting, same-domain calls,
// error propagation and piggyback hooks.
#include <gtest/gtest.h>

#include "src/ipc/rpc.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

Status Noop() { return Status::kOk; }

TEST(Rpc, KernelUserCrossingCharges) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* u = m.CreateDomain("u");
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Invoke(*u, m.kernel(), Noop), Status::kOk);
  EXPECT_EQ(m.clock().Now() - before, m.costs().ipc_kernel_user_ns);
  EXPECT_EQ(m.stats().ipc_calls, 1u);
}

TEST(Rpc, UserUserCrossingChargesMore) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Invoke(*a, *b, Noop), Status::kOk);
  EXPECT_EQ(m.clock().Now() - before, m.costs().ipc_user_user_ns);
  EXPECT_GT(m.costs().ipc_user_user_ns, m.costs().ipc_kernel_user_ns);
}

TEST(Rpc, SameDomainCallIsFree) {
  // A call within one domain is a procedure call: no latency, no crossing
  // counted, and no piggyback hook runs in either direction.
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  int hook_runs = 0;
  rpc.AddPiggybackHook([&hook_runs](Domain&, Domain&) { hook_runs++; });
  bool ran = false;
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Invoke(*a, *a,
                       [&] {
                         ran = true;
                         return Status::kOk;
                       }),
            Status::kOk);
  EXPECT_TRUE(ran);
  EXPECT_EQ(m.clock().Now(), before);
  EXPECT_EQ(m.stats().ipc_calls, 0u);
  EXPECT_EQ(hook_runs, 0);
}

TEST(Rpc, PiggybackHooksRunBothDirections) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  std::vector<std::pair<DomainId, DomainId>> seen;
  rpc.AddPiggybackHook(
      [&seen](Domain& from, Domain& to) { seen.emplace_back(from.id(), to.id()); });
  ASSERT_EQ(rpc.Invoke(*a, *b,
                       [&] {
                         // The request-direction hook has run; the reply's not yet.
                         EXPECT_EQ(seen.size(), 1u);
                         return Status::kOk;
                       }),
            Status::kOk);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(a->id(), b->id()));  // request
  EXPECT_EQ(seen[1], std::make_pair(b->id(), a->id()));  // reply
}

TEST(Rpc, InvokeRunsFunctionWithCrossing) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  bool ran = false;
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Invoke(*a, *b,
                       [&] {
                         ran = true;
                         return Status::kOk;
                       }),
            Status::kOk);
  EXPECT_TRUE(ran);
  EXPECT_GT(m.clock().Now(), before);
}

TEST(Rpc, InvokeErrorPropagates) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  EXPECT_EQ(rpc.Invoke(*a, *b, [] { return Status::kExhausted; }), Status::kExhausted);
  // A failing callee still paid for the crossing.
  EXPECT_EQ(m.stats().ipc_calls, 1u);
}

}  // namespace
}  // namespace fbufs
