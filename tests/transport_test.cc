// Transport-framework tests centred on the pinned-retransmit ledger: pins
// mirror the unacked window and release on cumulative ack; retransmission
// never re-pins; cold pins survive a pressure sweep by being paged out (and
// the eventual retransmission faults them back in intact); a mid-retransmit
// domain termination reclaims the ledger through the abort path; and
// Shutdown on a live domain frees both the sender's retentions and the
// receiver's out-of-order stash.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/pressure/pressure.h"
#include "src/proto/swp.h"
#include "src/proto/test_protocols.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

MachineConfig SmallPool(std::uint32_t frames) {
  MachineConfig cfg = ZeroCostConfig();
  cfg.phys_frames = frames;
  return cfg;
}

// Two transport peers in different domains joined by lossy channels, with
// the sender's pins recorded in a RetransmitLedger (the incast worlds'
// wiring, reduced to one conversation).
struct LedgeredPair {
  LedgeredPair(World* w, std::uint32_t drop_percent, std::uint32_t window = 8)
      : world(w) {
    a_dom = w->AddDomain("peer-a");
    b_dom = w->AddDomain("peer-b");
    stack = std::make_unique<ProtocolStack>(&w->machine, &w->fsys, &w->rpc);
    stack->set_domain_count(2);
    const PathId a_hdr = w->fsys.paths().Register({a_dom->id(), b_dom->id()});
    const PathId b_hdr = w->fsys.paths().Register({b_dom->id(), a_dom->id()});
    data_path = w->fsys.paths().Register({a_dom->id(), b_dom->id()});
    a = std::make_unique<SwpProtocol>(a_dom, stack.get(), a_hdr, window);
    b = std::make_unique<SwpProtocol>(b_dom, stack.get(), b_hdr, window);
    a->AttachLedger(&ledger);
    ab = std::make_unique<LossyChannel>(a_dom, stack.get(), 42, drop_percent);
    ba = std::make_unique<LossyChannel>(b_dom, stack.get(), 43, drop_percent);
    sink = std::make_unique<SinkProtocol>(b_dom, stack.get());
    a->set_below(ab.get());
    ab->set_peer_above(b.get());
    b->set_below(ba.get());
    ba->set_peer_above(a.get());
    b->set_above(sink.get());
  }

  Status SendOne(std::uint64_t bytes, std::uint8_t fill) {
    Fbuf* fb = nullptr;
    Status st = world->fsys.Allocate(*a_dom, data_path, bytes, true, &fb);
    if (!Ok(st)) {
      return st;
    }
    std::vector<std::uint8_t> data(bytes, fill);
    st = a_dom->WriteBytes(fb->base, data.data(), bytes);
    if (!Ok(st)) {
      return st;
    }
    st = a->Push(Message::Whole(fb));
    const Status free_st = world->fsys.Free(fb, *a_dom);
    return Ok(st) ? free_st : st;
  }

  World* world;
  Domain* a_dom;
  Domain* b_dom;
  PathId data_path = kNoPath;
  RetransmitLedger ledger;
  std::unique_ptr<ProtocolStack> stack;
  std::unique_ptr<SwpProtocol> a;
  std::unique_ptr<SwpProtocol> b;
  std::unique_ptr<LossyChannel> ab;
  std::unique_ptr<LossyChannel> ba;
  std::unique_ptr<SinkProtocol> sink;
};

TEST(RetransmitLedger, PinsMirrorTheWindowAndReleaseOnCumulativeAck) {
  World w;
  // Perfect channel: every frame is acked synchronously inside Push, so the
  // ledger releases as fast as it pins.
  LedgeredPair p(&w, /*drop=*/0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(p.SendOne(1000, static_cast<std::uint8_t>(i)), Status::kOk);
  }
  EXPECT_EQ(p.a->unacked(), 0u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 0u);
  EXPECT_EQ(p.ledger.pinned_pages(), 0u);
  EXPECT_EQ(p.ledger.total_pinned(), 5u);
  EXPECT_EQ(p.ledger.released_on_ack(), 5u);

  // Black-hole the forward path: pins accumulate with the unacked window.
  p.ab->set_drop_percent(100);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(p.SendOne(1000, 7), Status::kOk);
  }
  EXPECT_EQ(p.a->unacked(), 3u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 3u);
  EXPECT_GT(p.ledger.pinned_pages(), 0u);

  // Heal the path: one retransmission round delivers and acks everything.
  p.ab->set_drop_percent(0);
  ASSERT_EQ(p.a->Tick(), Status::kOk);
  EXPECT_EQ(p.a->unacked(), 0u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 0u);
  EXPECT_EQ(p.ledger.released_on_ack(), 8u);
  EXPECT_EQ(p.sink->received(), 8u);
}

TEST(RetransmitLedger, RetransmissionNeverRePins) {
  World w;
  LedgeredPair p(&w, /*drop=*/100);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(p.SendOne(500, 1), Status::kOk);
  }
  // Several RTOs' worth of go-back-all: the references were never dropped,
  // so each frame stays pinned exactly once however often it goes back out.
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(p.a->Tick(), Status::kOk);
  }
  EXPECT_EQ(p.a->retransmissions(), 12u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 3u);
  EXPECT_EQ(p.ledger.total_pinned(), 3u);
  EXPECT_EQ(p.ledger.peak_pinned_pdus(), 3u);
}

TEST(RetransmitLedger, ColdPinsPageOutUnderPressureAndRetransmitFaultsBack) {
  World w(SmallPool(96));
  PressureConfig pc;
  pc.low_free_frames = 2;
  // Unreachable recovery target: free-list and cache stages can never get
  // there, so the sweep must reach its pageout stage.
  pc.high_free_frames = 96;
  PressureManager pm(&w.fsys, pc);
  LedgeredPair p(&w, /*drop=*/100);
  pm.AttachRetransmitLedger(&p.ledger);
  Domain* hog = w.AddDomain("hog");

  // Four 4-page PDUs pinned for retransmission, then one pageout horizon of
  // silence: the pins go cold.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(p.SendOne(4 * kPageSize, static_cast<std::uint8_t>(0x40 + i)),
              Status::kOk);
  }
  ASSERT_EQ(p.ledger.pinned_pages(), 16u);
  w.machine.clock().Advance(PressureManager::kPageoutMinAge + kMillisecond);

  // Exhaust the pool; the next demand's emergency sweep pages the cold
  // pinned fbufs to backing store instead of failing the allocation.
  std::vector<Fbuf*> hoard;
  while (w.machine.pmem().free_frames() >= 8) {
    Fbuf* fb = nullptr;
    ASSERT_TRUE(Ok(w.fsys.Allocate(*hog, kNoPath, 8 * kPageSize, false, &fb)));
    hoard.push_back(fb);
  }
  Fbuf* rescue = nullptr;
  ASSERT_TRUE(Ok(w.fsys.Allocate(*hog, kNoPath, 8 * kPageSize, false, &rescue)));
  EXPECT_GT(pm.pages_paged_out(), 0u);
  // Paged out, not released: the ledger still pins every PDU.
  EXPECT_EQ(p.ledger.pinned_pdus(), 4u);

  // Make room again, heal the path, retransmit: the paged-out frames fault
  // back in and the receiver gets every byte.
  ASSERT_TRUE(Ok(w.fsys.Free(rescue, *hog)));
  for (Fbuf* fb : hoard) {
    ASSERT_TRUE(Ok(w.fsys.Free(fb, *hog)));
  }
  p.ab->set_drop_percent(0);
  p.ba->set_drop_percent(0);
  ASSERT_EQ(p.a->Tick(), Status::kOk);
  EXPECT_EQ(p.a->unacked(), 0u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 0u);
  EXPECT_EQ(p.sink->received(), 4u);
  EXPECT_EQ(p.sink->bytes_received(), 4u * 4 * kPageSize);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

TEST(RetransmitLedger, DomainTerminationMidRetransmitReclaimsTheLedger) {
  World w;
  LedgeredPair p(&w, /*drop=*/100);
  p.a->InstallAbortOnTermination();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(p.SendOne(1000, 9), Status::kOk);
  }
  ASSERT_EQ(p.a->Tick(), Status::kOk);  // mid-retransmit
  ASSERT_EQ(p.ledger.pinned_pdus(), 3u);

  // The sender domain dies. §3.3 cleanup drops its references; the abort
  // hook must forget the transport's bookkeeping and reclaim the ledger —
  // NOT free again.
  w.machine.DestroyDomain(p.a_dom->id());
  EXPECT_TRUE(p.a->aborted());
  EXPECT_EQ(p.a->unacked(), 0u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 0u);
  EXPECT_EQ(p.ledger.pinned_pages(), 0u);
  EXPECT_EQ(p.ledger.reclaimed_on_abort(), 3u);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

TEST(Transport, ShutdownOnLiveDomainsFreesRetentionsAndStash) {
  World w;
  LedgeredPair p(&w, /*drop=*/0);
  // Frame 0 vanishes, frames 1 and 2 arrive: the receiver stashes them
  // out of order while the sender retains all three.
  p.ab->set_drop_percent(100);
  ASSERT_EQ(p.SendOne(1000, 0), Status::kOk);
  p.ab->set_drop_percent(0);
  ASSERT_EQ(p.SendOne(1000, 1), Status::kOk);
  ASSERT_EQ(p.SendOne(1000, 2), Status::kOk);
  ASSERT_EQ(p.a->unacked(), 3u);
  ASSERT_EQ(p.b->stashed(), 2u);
  ASSERT_EQ(p.ledger.pinned_pdus(), 3u);

  // Orderly teardown with both domains alive: every retained reference is
  // freed here, because §3.3 cleanup will never run for them.
  EXPECT_EQ(p.a->Shutdown(), Status::kOk);
  EXPECT_EQ(p.b->Shutdown(), Status::kOk);
  EXPECT_TRUE(p.a->aborted());
  EXPECT_EQ(p.a->unacked(), 0u);
  EXPECT_EQ(p.b->stashed(), 0u);
  EXPECT_EQ(p.ledger.pinned_pdus(), 0u);
  EXPECT_EQ(p.ledger.reclaimed_on_abort(), 3u);
  const FbufSystem::AuditCounts audit = w.fsys.Audit();
  EXPECT_EQ(audit.free_list_errors, 0u);
  EXPECT_EQ(audit.dangling_mappings, 0u);
}

}  // namespace
}  // namespace fbufs
