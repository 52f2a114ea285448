// Journey-completeness tests for the fbuf provenance tracker: a normal
// alloc → transfer → free path records one fully-terminated journey with
// ordered hops; domain termination (a terminate_originator-style axe, and a
// congestion_collapse-style incast with a mid-retransmit axe) ends every
// in-flight journey with an abort hop and leaves no orphans — exactly the
// reconciliation the fault campaigns run next to the InvariantAuditor.
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "src/fault/incast_world.h"
#include "src/obs/lifecycle.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;

struct TrackedWorld {
  // Real (non-zero) costs so hop timestamps actually advance.
  TrackedWorld() : world(MachineConfig{}), tracker(&world.machine) {
    src = world.AddDomain("src");
    dst = world.AddDomain("dst");
    path = world.fsys.paths().Register({src->id(), dst->id()});
    world.machine.AttachLifecycle(&tracker);
  }
  // The worlds free fbufs in their destructors; the tracker must outlive
  // those hooks or be detached first. Member order does the former here,
  // but detach anyway to mirror what the benches must do.
  ~TrackedWorld() { world.machine.AttachLifecycle(nullptr); }

  World world;
  LifecycleTracker tracker;
  Domain* src = nullptr;
  Domain* dst = nullptr;
  PathId path = kNoPath;
};

TEST(Lifecycle, NormalJourneyEndsInFreeWithOrderedHops) {
  TrackedWorld w;
  Fbuf* fb = nullptr;
  ASSERT_TRUE(Ok(w.world.fsys.Allocate(*w.src, w.path, 2 * kPageSize,
                                       /*want_volatile=*/true, &fb)));
  ASSERT_TRUE(Ok(w.world.fsys.Transfer(fb, *w.src, *w.dst)));
  ASSERT_TRUE(Ok(w.world.fsys.Free(fb, *w.dst)));
  ASSERT_TRUE(Ok(w.world.fsys.Free(fb, *w.src)));

  ASSERT_EQ(w.tracker.journeys().size(), 1u);
  const Journey& j = w.tracker.journeys().front();
  EXPECT_TRUE(j.ended);
  EXPECT_FALSE(j.aborted);
  EXPECT_EQ(j.fbuf, fb->id);
  EXPECT_EQ(j.originator, w.src->id());
  EXPECT_EQ(j.bytes, 2 * kPageSize);
  ASSERT_GE(j.hops.size(), 3u);
  EXPECT_EQ(j.hops.front().kind, HopKind::kAlloc);
  EXPECT_EQ(j.hops.back().kind, HopKind::kFree);
  bool transferred = false;
  SimTime prev = 0;
  for (const LifecycleHop& h : j.hops) {
    transferred = transferred || h.kind == HopKind::kTransfer;
    EXPECT_GE(h.time, prev);
    prev = h.time;
  }
  EXPECT_TRUE(transferred);

  const auto rec = w.tracker.Reconcile();
  EXPECT_TRUE(rec.passed());
  EXPECT_EQ(rec.open, 0u);
  EXPECT_EQ(rec.ended, 1u);
  EXPECT_EQ(rec.aborted, 0u);
  EXPECT_EQ(rec.dropped, 0u);
  EXPECT_EQ(w.tracker.open_count(), 0u);
}

TEST(Lifecycle, RecycledFbufIdOpensAFreshJourney) {
  TrackedWorld w;
  Fbuf* a = nullptr;
  ASSERT_TRUE(Ok(w.world.fsys.Allocate(*w.src, w.path, kPageSize, true, &a)));
  const FbufId first_id = a->id;
  ASSERT_TRUE(Ok(w.world.fsys.Free(a, *w.src)));
  // The cached fbuf free-lists; the next allocation reuses the same id.
  Fbuf* b = nullptr;
  ASSERT_TRUE(Ok(w.world.fsys.Allocate(*w.src, w.path, kPageSize, true, &b)));
  ASSERT_EQ(b->id, first_id);
  ASSERT_TRUE(Ok(w.world.fsys.Free(b, *w.src)));

  ASSERT_EQ(w.tracker.journeys().size(), 2u);
  EXPECT_NE(w.tracker.journeys()[0].id, w.tracker.journeys()[1].id);
  EXPECT_EQ(w.tracker.journeys()[0].fbuf, w.tracker.journeys()[1].fbuf);
  EXPECT_TRUE(w.tracker.journeys()[0].ended);
  EXPECT_TRUE(w.tracker.journeys()[1].ended);
  const auto rec = w.tracker.Reconcile();
  EXPECT_TRUE(rec.passed());
  EXPECT_EQ(rec.ended, 2u);
}

TEST(Lifecycle, TrackerAttachedMidRunIgnoresUnknownFbufs) {
  World world{MachineConfig{}};
  Domain* src = world.AddDomain("src");
  Domain* dst = world.AddDomain("dst");
  PathId path = world.fsys.paths().Register({src->id(), dst->id()});
  Fbuf* fb = nullptr;
  ASSERT_TRUE(Ok(world.fsys.Allocate(*src, path, kPageSize, true, &fb)));

  // Attached after the allocation: every hook on this fbuf must no-op.
  LifecycleTracker tracker(&world.machine);
  world.machine.AttachLifecycle(&tracker);
  ASSERT_TRUE(Ok(world.fsys.Transfer(fb, *src, *dst)));
  ASSERT_TRUE(Ok(world.fsys.Free(fb, *dst)));
  ASSERT_TRUE(Ok(world.fsys.Free(fb, *src)));
  world.machine.AttachLifecycle(nullptr);

  EXPECT_EQ(tracker.journeys().size(), 0u);
  EXPECT_EQ(tracker.total_hops(), 0u);
  EXPECT_TRUE(tracker.Reconcile().passed());
}

TEST(Lifecycle, JourneyCapCountsDroppedAllocations) {
  World world{MachineConfig{}};
  Domain* src = world.AddDomain("src");
  Domain* dst = world.AddDomain("dst");
  PathId path = world.fsys.paths().Register({src->id(), dst->id()});
  LifecycleTracker tracker(&world.machine, /*max_journeys=*/1);
  world.machine.AttachLifecycle(&tracker);

  Fbuf* a = nullptr;
  Fbuf* b = nullptr;
  ASSERT_TRUE(Ok(world.fsys.Allocate(*src, path, kPageSize, true, &a)));
  ASSERT_TRUE(Ok(world.fsys.Allocate(*src, path, kPageSize, true, &b)));
  ASSERT_TRUE(Ok(world.fsys.Free(b, *src)));
  ASSERT_TRUE(Ok(world.fsys.Free(a, *src)));
  world.machine.AttachLifecycle(nullptr);

  EXPECT_EQ(tracker.journeys().size(), 1u);
  EXPECT_EQ(tracker.dropped_journeys(), 1u);
  const auto rec = tracker.Reconcile();
  EXPECT_EQ(rec.dropped, 1u);
  // The recorded journey is still internally consistent.
  EXPECT_TRUE(rec.passed());
  EXPECT_EQ(rec.ended, 1u);
}

// terminate_originator in miniature: the §3.3 sweep force-releases the
// dying domain's holds, and every such journey must end in an abort hop —
// never dangle open, never end in anything but kAbort.
TEST(Lifecycle, TerminatingTheOriginatorAbortsHeldJourneys) {
  TrackedWorld w;
  Fbuf* held_a = nullptr;
  Fbuf* held_b = nullptr;
  Fbuf* sent = nullptr;
  ASSERT_TRUE(Ok(w.world.fsys.Allocate(*w.src, w.path, kPageSize, true, &held_a)));
  ASSERT_TRUE(Ok(w.world.fsys.Allocate(*w.src, w.path, kPageSize, true, &held_b)));
  ASSERT_TRUE(Ok(w.world.fsys.Allocate(*w.src, w.path, kPageSize, true, &sent)));
  ASSERT_TRUE(Ok(w.world.fsys.Transfer(sent, *w.src, *w.dst)));
  // The receiver released its reference; the originator alone still holds.
  ASSERT_TRUE(Ok(w.world.fsys.Free(sent, *w.dst)));

  w.world.machine.DestroyDomain(w.src->id());

  ASSERT_EQ(w.tracker.journeys().size(), 3u);
  const auto rec = w.tracker.Reconcile();
  EXPECT_TRUE(rec.passed());
  EXPECT_EQ(rec.open, 0u);
  EXPECT_EQ(rec.aborted, 3u);
  EXPECT_EQ(rec.ended, 0u);
  for (const Journey& j : w.tracker.journeys()) {
    EXPECT_TRUE(j.ended);
    EXPECT_TRUE(j.aborted);
    ASSERT_FALSE(j.hops.empty());
    EXPECT_EQ(j.hops.back().kind, HopKind::kAbort);
  }
}

// congestion_collapse in miniature: an incast fan-in under sustained load
// loses one sender mid-retransmit (producer stopped just before the axe,
// its receiver half shut down just after, mirroring the campaign's
// bracket). Survivors drain; reconciliation must show the victim's pinned
// window ending in abort hops and every survivor journey balanced.
TEST(Lifecycle, CongestionCollapseVictimJourneysEndInAborts) {
  IncastWorldConfig cfg;
  cfg.kind = TransportKind::kFixedWindow;
  cfg.racks = 1;
  cfg.senders_per_rack = 3;
  cfg.window = 4;
  IncastWorld w(cfg);
  LifecycleTracker tracker(&w.machine);
  w.machine.AttachLifecycle(&tracker);

  constexpr std::size_t kVictim = 1;
  constexpr SimTime kAxe = 2 * kMillisecond;
  w.loop.Schedule(kAxe - 100 * kMicrosecond, "stop-victim-producer",
                  [&w] { w.StopProducer(kVictim); });
  w.loop.Schedule(kAxe, "terminate-victim", [&w] {
    w.machine.DestroyDomain(w.flow(kVictim).sender_domain->id());
  });
  w.loop.Schedule(kAxe + 100 * kMicrosecond, "shutdown-victim-receiver",
                  [&w] { w.flow(kVictim).receiver->Shutdown(); });

  const int messages = 24;
  w.StartProducers(messages, 2 * kPageSize);
  w.loop.Run();
  w.machine.AttachLifecycle(nullptr);

  // Survivors drained; the victim's pinned retransmit window reclaimed.
  for (std::size_t i = 0; i < w.flow_count(); ++i) {
    if (i == kVictim) {
      EXPECT_EQ(w.flow(i).ledger->pinned_pdus(), 0u) << "victim ledger";
      continue;
    }
    EXPECT_EQ(w.flow(i).producer->accepted(), messages) << "flow " << i;
  }

  const auto rec = tracker.Reconcile();
  EXPECT_TRUE(rec.passed())
      << "pin_imbalance=" << rec.pin_imbalance << " bad_end=" << rec.bad_end;
  EXPECT_EQ(rec.dropped, 0u);
  EXPECT_GT(rec.ended, 0u);
  EXPECT_GE(rec.aborted, 1u) << "the axed sender's window must abort";
  // Every aborted journey carries an explicit abort hop; no orphans remain
  // open once the loop quiesces.
  std::uint64_t abort_hops = 0;
  for (const Journey& j : tracker.journeys()) {
    if (j.aborted) {
      ASSERT_FALSE(j.hops.empty());
      EXPECT_EQ(j.hops.back().kind, HopKind::kAbort);
      abort_hops++;
    }
  }
  EXPECT_EQ(abort_hops, rec.aborted);
  EXPECT_EQ(rec.open, 0u);
}

}  // namespace
}  // namespace fbufs
