// Tests for the IPC layer: RPC latency accounting, service dispatch, and
// piggyback hooks.
#include <gtest/gtest.h>

#include "src/ipc/rpc.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

TEST(Rpc, KernelUserCrossingCharges) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* u = m.CreateDomain("u");
  rpc.RegisterService(m.kernel(), 1, [](RpcArgs&) { return Status::kOk; });
  RpcArgs args;
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Call(*u, 1, args), Status::kOk);
  EXPECT_EQ(m.clock().Now() - before, m.costs().ipc_kernel_user_ns);
  EXPECT_EQ(m.stats().ipc_calls, 1u);
}

TEST(Rpc, UserUserCrossingChargesMore) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  rpc.RegisterService(*b, 1, [](RpcArgs&) { return Status::kOk; });
  RpcArgs args;
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Call(*a, 1, args), Status::kOk);
  EXPECT_EQ(m.clock().Now() - before, m.costs().ipc_user_user_ns);
  EXPECT_GT(m.costs().ipc_user_user_ns, m.costs().ipc_kernel_user_ns);
}

TEST(Rpc, SameDomainCallIsFree) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  rpc.RegisterService(*a, 1, [](RpcArgs&) { return Status::kOk; });
  RpcArgs args;
  const SimTime before = m.clock().Now();
  ASSERT_EQ(rpc.Call(*a, 1, args), Status::kOk);
  EXPECT_EQ(m.clock().Now(), before);
  EXPECT_EQ(m.stats().ipc_calls, 0u);
}

TEST(Rpc, ArgsAreInOut) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  (void)a;
  rpc.RegisterService(*b, 9, [](RpcArgs& args) {
    args.word[1] = args.word[0] * 2;
    return Status::kOk;
  });
  RpcArgs args;
  args.word[0] = 21;
  ASSERT_EQ(rpc.Call(*a, 9, args), Status::kOk);
  EXPECT_EQ(args.word[1], 42u);
}

TEST(Rpc, UnknownServiceFails) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  RpcArgs args;
  EXPECT_EQ(rpc.Call(*a, 404, args), Status::kNotFound);
}

TEST(Rpc, DeadServerFails) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  rpc.RegisterService(*b, 1, [](RpcArgs&) { return Status::kOk; });
  m.DestroyDomain(b->id());
  RpcArgs args;
  EXPECT_EQ(rpc.Call(*a, 1, args), Status::kNotFound);
}

TEST(Rpc, PiggybackHooksRunBothDirections) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  std::vector<std::pair<DomainId, DomainId>> seen;
  rpc.AddPiggybackHook(
      [&seen](Domain& from, Domain& to) { seen.emplace_back(from.id(), to.id()); });
  rpc.RegisterService(*b, 1, [](RpcArgs&) { return Status::kOk; });
  RpcArgs args;
  ASSERT_EQ(rpc.Call(*a, 1, args), Status::kOk);
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

TEST(Rpc, HandlerErrorPropagates) {
  Machine m{MachineConfig{}};
  Rpc rpc(&m);
  Domain* a = m.CreateDomain("a");
  Domain* b = m.CreateDomain("b");
  rpc.RegisterService(*b, 1, [](RpcArgs&) { return Status::kExhausted; });
  RpcArgs args;
  EXPECT_EQ(rpc.Call(*a, 1, args), Status::kExhausted);
}

}  // namespace
}  // namespace fbufs
