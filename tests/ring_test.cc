// Transfer-ring tests: SQ wraparound, full-SQ backpressure, doorbell
// coalescing while the consumer is armed, terminated-domain teardown, and
// the §3.3 equivalence between piggyback/threshold dealloc notices and
// ring-batched ones (same delivery order, zero leaked frames).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/auditor.h"
#include "src/fbuf/fbuf_system.h"
#include "src/ipc/rpc.h"
#include "src/pressure/backoff.h"
#include "src/ring/ring_hub.h"
#include "src/ring/transfer_ring.h"
#include "src/vm/machine.h"

namespace fbufs {
namespace {

struct RingWorld {
  RingWorld() : machine(MachineConfig{}), fsys(&machine), rpc(&machine) {
    fsys.AttachRpc(&rpc);
    producer = machine.CreateDomain("producer");
    consumer = machine.CreateDomain("consumer");
  }

  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  EventLoop loop;
  Domain* producer = nullptr;
  Domain* consumer = nullptr;
};

TEST(TransferRing, WraparoundPreservesFifoOrder) {
  RingWorld w;
  RingConfig cfg;
  cfg.sq_slots = 4;
  cfg.cq_slots = 4;
  cfg.doorbell_batch = 1;
  TransferRing ring(&w.machine, &w.fsys, &w.rpc, &w.loop, *w.producer,
                    *w.consumer, cfg, "ring/t");
  std::vector<int> order;
  int submitted = 0;
  // 16 entries through 4 slots: the masked indices wrap four times; FIFO
  // order must survive every wrap.
  for (int wave = 0; wave < 6 && submitted < 16; ++wave) {
    for (int i = 0; i < 3 && submitted < 16; ++i) {
      const int id = submitted++;
      ASSERT_EQ(ring.SubmitHandoff(kAttrNoPath,
                                   [&order, id, &w] {
                                     order.push_back(id);
                                     w.machine.clock().Advance(100);
                                     return Status::kOk;
                                   }),
                Status::kOk);
    }
    w.loop.Run();
  }
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(ring.stats().submitted, 16u);
  EXPECT_EQ(ring.stats().consumed, 16u);
  EXPECT_TRUE(ring.SqEmpty());
}

TEST(TransferRing, FullSqIsRetryableBackpressure) {
  RingWorld w;
  RingConfig cfg;
  cfg.sq_slots = 4;
  cfg.cq_slots = 4;
  cfg.doorbell_batch = 64;  // never reached: the flush timer must deliver
  TransferRing ring(&w.machine, &w.fsys, &w.rpc, &w.loop, *w.producer,
                    *w.consumer, cfg, "ring/t");
  int ran = 0;
  auto body = [&ran, &w] {
    ran++;
    w.machine.clock().Advance(100);
    return Status::kOk;
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ring.SubmitHandoff(kAttrNoPath, body), Status::kOk);
  }
  const Status full = ring.SubmitHandoff(kAttrNoPath, body);
  EXPECT_EQ(full, Status::kExhausted);
  // The refusal must be the parking-is-productive kind, not a hard error.
  EXPECT_TRUE(IsBackpressure(full));
  EXPECT_EQ(ring.stats().sq_full, 1u);
  // Drain (the armed flush timer rings the doorbell) and the slot frees.
  w.loop.Run();
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(ring.stats().flush_doorbells, 1u);
  EXPECT_EQ(ring.SubmitHandoff(kAttrNoPath, body), Status::kOk);
  w.loop.Run();
  EXPECT_EQ(ran, 5);
}

TEST(TransferRing, DoorbellCoalescesWhileTheConsumerIsArmed) {
  RingWorld w;
  RingConfig cfg;
  cfg.doorbell_batch = 1;  // most doorbell-eager configuration
  TransferRing ring(&w.machine, &w.fsys, &w.rpc, &w.loop, *w.producer,
                    *w.consumer, cfg, "ring/t");
  int ran = 0;
  // The first submission rings and arms the consumer; its drain is still
  // pending while five more submissions land. All six must ride one crossing.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(ring.SubmitHandoff(kAttrNoPath,
                                 [&ran, &w] {
                                   ran++;
                                   w.machine.clock().Advance(1000);
                                   return Status::kOk;
                                 }),
              Status::kOk);
  }
  w.loop.Run();
  EXPECT_EQ(ran, 6);
  EXPECT_EQ(ring.stats().consumed, 6u);
  EXPECT_EQ(ring.stats().doorbells, 1u);
  EXPECT_EQ(w.machine.stats().ipc_calls, 1u);
  // Per-lane conservation: every charge landed on the lane it ran on.
  SimTime lanes = 0;
  for (std::uint32_t c = 0; c < w.machine.num_cpus(); ++c) {
    EXPECT_EQ(w.machine.attribution().ByCpu(c), w.machine.cpu_clock(c).Now());
    lanes += w.machine.cpu_clock(c).Now();
  }
  EXPECT_EQ(w.machine.attribution().total(), lanes);
}

TEST(TransferRing, TerminatedConsumerAbortsHandoffsAndAppliesNotices) {
  RingWorld w;
  RingHub hub(&w.machine, &w.fsys, &w.rpc, &w.loop);
  w.fsys.SetNoticeTransport(&hub);
  const PathId path =
      w.fsys.paths().Register({w.producer->id(), w.consumer->id()});

  // |consumer| originates an fbuf, hands it to |producer|, and drops its own
  // reference; |producer|'s final release then owes the owner a notice,
  // which rides the (producer -> consumer) ring.
  Fbuf* fb = nullptr;
  ASSERT_EQ(w.fsys.Allocate(*w.consumer, path, 2 * kPageSize, true, &fb),
            Status::kOk);
  ASSERT_EQ(w.fsys.Transfer(fb, *w.consumer, *w.producer), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *w.consumer), Status::kOk);
  ASSERT_EQ(w.fsys.Free(fb, *w.producer), Status::kOk);

  TransferRing* ring = hub.RingFor(w.producer->id(), w.consumer->id());
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->stats().submitted, 1u);

  bool aborted = false;
  Status handoff_status = Status::kOk;
  ASSERT_EQ(ring->SubmitHandoff(
                kAttrNoPath, [] { return Status::kOk; },
                [&aborted] { aborted = true; },
                [&handoff_status](Status st, SimTime) { handoff_status = st; }),
            Status::kOk);

  // The consumer dies with both entries still queued: the dealloc notice is
  // applied (owner dead -> fbuf destroyed, frames recovered), the handoff
  // aborts.
  w.machine.DestroyDomain(w.consumer->id());
  EXPECT_TRUE(ring->dead());
  EXPECT_TRUE(ring->SqEmpty());
  EXPECT_TRUE(aborted);
  EXPECT_EQ(handoff_status, Status::kNotFound);
  EXPECT_EQ(ring->stats().aborted, 1u);
  EXPECT_TRUE(fb->dead);
  // A dead ring refuses further traffic (and the hub stops returning it).
  EXPECT_EQ(ring->SubmitDealloc(fb->id, kAttrNoPath), Status::kNotFound);
  EXPECT_EQ(hub.RingFor(w.producer->id(), w.consumer->id()), nullptr);

  const HostAuditResult audit =
      InvariantAuditor::AuditHost("ring-teardown", w.machine, w.fsys);
  EXPECT_TRUE(audit.passed);
  EXPECT_EQ(audit.leaked_frames, 0u);
}

// Runs the shared §3.3 scenario — |n| cached fbufs allocated by |src|,
// transferred to |dst|, released by both — and returns the order in which
// return-to-owner fired, by fbuf id. |use_rings| routes the notices through
// a RingHub; otherwise they take the classic pending-list path and are
// piggybacked on an explicit crossing at the end.
std::vector<std::uint64_t> RunDeallocScenario(bool use_rings, int n,
                                              std::uint64_t* notices,
                                              std::uint64_t* leaked) {
  RingWorld w;
  w.machine.trace().SetCapacity(4096);
  w.machine.trace().Enable(TraceCategory::kFbuf);
  RingHub hub(&w.machine, &w.fsys, &w.rpc, &w.loop);
  if (use_rings) {
    w.fsys.SetNoticeTransport(&hub);
  }
  const PathId path = w.fsys.paths().Register({w.producer->id(), w.consumer->id()});

  std::vector<Fbuf*> fbufs;
  for (int i = 0; i < n; ++i) {
    Fbuf* fb = nullptr;
    EXPECT_EQ(w.fsys.Allocate(*w.producer, path, kPageSize, true, &fb),
              Status::kOk);
    EXPECT_EQ(w.fsys.Transfer(fb, *w.producer, *w.consumer), Status::kOk);
    EXPECT_EQ(w.fsys.Free(fb, *w.producer), Status::kOk);
    fbufs.push_back(fb);
  }
  for (Fbuf* fb : fbufs) {
    // Final release by the receiver: owes the originator a notice.
    EXPECT_EQ(w.fsys.Free(fb, *w.consumer), Status::kOk);
  }
  if (use_rings) {
    hub.FlushAll();
    w.loop.Run();
  } else {
    // Piggyback carrier: one explicit crossing flushes the pending list.
    w.rpc.Invoke(*w.producer, *w.consumer, [] { return Status::kOk; });
  }

  std::vector<std::uint64_t> order;
  for (const TraceEvent& e : w.machine.trace().Snapshot()) {
    if (std::string(e.what) == "return-to-owner") {
      order.push_back(e.a);
    }
  }
  if (notices != nullptr) {
    *notices = w.machine.stats().dealloc_notices;
  }
  const HostAuditResult audit =
      InvariantAuditor::AuditHost("dealloc-equivalence", w.machine, w.fsys);
  EXPECT_TRUE(audit.passed);
  if (leaked != nullptr) {
    *leaked = audit.leaked_frames;
  }
  // Every fbuf must be back on its originator's free list, reusable.
  for (Fbuf* fb : fbufs) {
    EXPECT_TRUE(fb->free_listed);
    EXPECT_FALSE(fb->dead);
  }
  return order;
}

TEST(TransferRing, DeallocNoticeDeliveryMatchesPiggybackPath) {
  constexpr int kN = 6;
  std::uint64_t legacy_notices = 0, ring_notices = 0;
  std::uint64_t legacy_leaked = 0, ring_leaked = 0;
  const std::vector<std::uint64_t> legacy =
      RunDeallocScenario(false, kN, &legacy_notices, &legacy_leaked);
  const std::vector<std::uint64_t> ringed =
      RunDeallocScenario(true, kN, &ring_notices, &ring_leaked);
  ASSERT_EQ(legacy.size(), static_cast<std::size_t>(kN));
  // Same notices, same order, no leaks — the ring transport is a faithful
  // §3.3 implementation, only batched.
  EXPECT_EQ(ringed, legacy);
  EXPECT_EQ(ring_notices, legacy_notices);
  EXPECT_EQ(legacy_leaked, 0u);
  EXPECT_EQ(ring_leaked, 0u);
}

}  // namespace
}  // namespace fbufs
