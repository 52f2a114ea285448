// FbufSystem: the fbuf allocation and cross-domain transfer facility (§3).
//
// Implements the paper's full design:
//   * a globally shared fbuf region, identical virtual addresses in every
//     domain (restricted dynamic read sharing, §3.2.1);
//   * a two-level allocation scheme — the kernel hands fixed-size chunks of
//     the region to per-domain, per-data-path allocators, which satisfy
//     allocations locally (§3.3);
//   * fbuf caching: on final release, write permission returns to the
//     originator and the fbuf goes on the path allocator's LIFO free list
//     with all receiver mappings retained (§3.2.2);
//   * volatile fbufs: immutability enforced lazily, on a receiver's explicit
//     Secure() request — a no-op for trusted originators (§3.2.4);
//   * pageable fbufs: a reclaim pass discards the physical memory of
//     free-listed fbufs without paging out (§3.3);
//   * deallocation notices piggybacked on RPC traffic, with explicit
//     messages only past a threshold (§3.3);
//   * chunk quotas against region exhaustion and domain-termination
//     cleanup rules (§3.3);
//   * "absent data" read fault semantics inside the region (§3.2.4).
#ifndef SRC_FBUF_FBUF_SYSTEM_H_
#define SRC_FBUF_FBUF_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/fbuf/fbuf.h"
#include "src/fbuf/path.h"
#include "src/ipc/rpc.h"
#include "src/sim/event_loop.h"
#include "src/vm/address_space.h"
#include "src/vm/machine.h"
#include "src/vm/types.h"

namespace fbufs {

struct FbufConfig {
  // Pages per chunk the kernel hands to user-level allocators (64 KB).
  std::uint64_t chunk_pages = 16;
  // Maximum chunks any single allocator may own (region-exhaustion guard).
  std::uint32_t chunk_quota = 1024;
  // Pending deallocation notices that force an explicit message.
  std::uint32_t notice_threshold = 64;
  // Security-clear pages when a new fbuf is carved (cached reuse never
  // clears — that saving is part of the caching optimization).
  bool clear_new_pages = true;
  // Reads of unmapped region pages map an all-zero "absent data" leaf
  // instead of faulting (§3.2.4). Disable to study the strict alternative.
  bool absent_leaf_reads = true;
  // Free lists are LIFO (§3.3: the front of the list is most likely to
  // still have physical memory). Set false for the FIFO ablation.
  bool lifo_free_lists = true;
};

// Installed by the pressure subsystem (src/pressure): OnAllocate runs at the
// top of every allocation (the watermark check — it may schedule an evented
// reclamation sweep); OnAllocationFailure runs synchronously as the last
// resort before an allocation fails for lack of physical frames or region
// space, and returns the pages it reclaimed (nonzero → the allocation is
// retried once).
class PressureHooks {
 public:
  virtual ~PressureHooks() = default;
  virtual void OnAllocate() = 0;
  virtual std::uint64_t OnAllocationFailure(std::uint64_t pages_needed) = 0;
};

// Installed by the ring subsystem (src/ring): an alternative carrier for
// §3.3 deallocation notices. When a transport is attached, a receiver's
// final release offers the notice to it first; accepted notices travel as
// ring entries (batched, amortized doorbell) and the transport later calls
// FbufSystem::ApplyRingNotice on the owner's side. A false return falls back
// to the classic pending-list path (piggyback + threshold flush), e.g. when
// the pair has no ring or its submission queue is full.
class RingNoticeTransport {
 public:
  virtual ~RingNoticeTransport() = default;
  virtual bool SubmitDeallocNotice(DomainId holder, DomainId owner, FbufId fb) = 0;
};

class FbufSystem {
 public:
  explicit FbufSystem(Machine* machine, const FbufConfig& config = FbufConfig());

  FbufSystem(const FbufSystem&) = delete;
  FbufSystem& operator=(const FbufSystem&) = delete;

  Machine& machine() { return *machine_; }
  const FbufConfig& config() const { return config_; }
  PathRegistry& paths() { return paths_; }

  // Routes deallocation notices over |rpc| (piggybacked on every crossing).
  void AttachRpc(Rpc* rpc);

  // Defers threshold-triggered explicit deallocation messages to |loop|:
  // instead of flushing synchronously inside Free, a flush event is
  // scheduled (one per (holder, owner) pair at a time). Notices that
  // piggyback on RPC traffic in the meantime make the event a no-op.
  // Without a loop attached the flush stays synchronous.
  void AttachEventLoop(EventLoop* loop) { loop_ = loop; }

  // Pressure integration (src/pressure installs these; nullptr detaches).
  void SetPressureHooks(PressureHooks* hooks) { pressure_ = hooks; }

  // Ring integration (src/ring installs this; nullptr detaches and restores
  // the classic piggyback/threshold notice path for every future release).
  void SetNoticeTransport(RingNoticeTransport* t) { notice_transport_ = t; }

  // Applies one ring-delivered deallocation notice on the owner's side:
  // the fbuf returns to its originator's allocator exactly as a piggybacked
  // notice would return it. Safe against the fbuf having died or been
  // handled in the meantime (domain termination drains rings).
  void ApplyRingNotice(DomainId holder, DomainId owner, FbufId id);

  // --- Allocation ------------------------------------------------------------
  // Allocates an fbuf of |bytes| in |originator|. With a live |path| whose
  // originator is |originator|, the allocation is served by the cached
  // per-path allocator (free-list reuse); otherwise by the domain's default
  // allocator, yielding an uncached fbuf. |want_volatile| selects lazy
  // (volatile) vs eager (secured-on-transfer) immutability enforcement.
  // |clear| overrides the config's security-clearing policy for this
  // allocation: a device driver whose DMA fully overwrites the buffer may
  // skip the clear (pass false).
  Status Allocate(Domain& originator, PathId path, std::uint64_t bytes, bool want_volatile,
                  Fbuf** out, std::optional<bool> clear = std::nullopt);

  // --- Transfer (copy semantics — the sender keeps its reference) -------------
  // Gives |to| a reference to and read access on |fb|. For a non-volatile
  // fbuf leaving an untrusted originator, write permission is revoked
  // eagerly. Charges only per-page mapping work that is actually needed;
  // control-transfer latency is the IPC layer's business.
  //
  // With |lazy| true only the reference moves; pages are mapped on demand
  // when the receiver actually touches them (a page fault installs the real
  // frame read-only). This is how an intermediate domain that never reads a
  // message's body — the paper's netserver running UDP — avoids all mapping
  // cost for it (§4, Figure 6 discussion).
  Status Transfer(Fbuf* fb, Domain& from, Domain& to, bool lazy = false);

  // Lazy immutability: revoke the originator's write access at a receiver's
  // request. No-op for trusted originators and already-secured fbufs.
  Status Secure(Fbuf* fb, Domain& requester);

  // A domain already holding a reference acquires another (retention across
  // asynchronous processing, e.g. reassembly or retransmission buffers).
  // Purely local: no mapping work, no kernel involvement.
  Status AddRef(Fbuf* fb, Domain& d);

  // Drops |d|'s reference. The final release returns the fbuf to its
  // originator's allocator: directly if |d| is the originator, else via a
  // deallocation notice (piggybacked, or an explicit message past the
  // threshold).
  Status Free(Fbuf* fb, Domain& d);

  // --- Memory pressure ---------------------------------------------------------
  // The pageout daemon's fbuf rule: discard (never page out) the physical
  // memory of free-listed fbufs, coldest (least recently freed) first, up to
  // |max_pages|. Returns the number of pages reclaimed.
  std::uint64_t ReclaimFreeMemory(std::uint64_t max_pages = ~std::uint64_t{0});

  // Fbufs are pageable, not wired (§2.1.3): under heavier pressure the
  // daemon pages out *in-use* fbuf pages to the backing store, preserving
  // their contents. The next touch by any holder faults the page back in
  // (page_in_ns). Returns pages swapped out.
  std::uint64_t PageOutInUse(std::uint64_t max_pages = ~std::uint64_t{0});

  // Pages out one specific in-use fbuf (the PressureManager's targeted
  // pageout stage: cold retransmit-pinned fbufs go first, rather than
  // whatever PageOutInUse's scan order happens to visit). Same mechanics as
  // PageOutInUse; returns pages swapped out.
  std::uint64_t PageOutFbuf(Fbuf* fb, std::uint64_t max_pages = ~std::uint64_t{0});

  std::uint64_t SwapResidentPages() const { return swap_.size(); }

  // Destroys the free-listed fbufs of cached allocators that have not served
  // an allocation for |idle_ns| (per the machine clock), releasing their
  // frames and region space. The reclamation sweep's last stage: unlike
  // ReclaimFreeMemory this gives back virtual space and chunk quota, at the
  // cost of cold restarts for the path. Returns pages released.
  std::uint64_t ShrinkIdlePaths(SimTime idle_ns);

  // --- Endpoint / domain lifecycle ----------------------------------------------
  // Communication endpoint destroyed: free-listed fbufs of the path are
  // destroyed now; in-flight ones when their references drain.
  void DestroyPath(PathId path);

  // Registered as a Machine termination hook; also callable directly.
  void OnDomainTerminated(Domain& d);

  // --- Introspection (tests, benches) --------------------------------------------
  Fbuf* Get(FbufId id);
  // Resolves an address inside the region to the live fbuf containing it
  // (nullptr if none). Used by the integrated aggregate transfer to find the
  // fbufs a stored DAG references.
  Fbuf* FindByAddr(VirtAddr addr);
  std::size_t PendingNotices(DomainId holder, DomainId owner) const;
  // Immediately sends an explicit deallocation message for the pair.
  void FlushNotices(DomainId holder, DomainId owner);
  std::uint64_t RegionFreePages() const { return region_va_.free_bytes() / kPageSize; }

  // --- Leak audit (fault campaigns, §3.3 cleanup rules) -------------------------
  // Aggregate consistency counts over the fbuf table and the alive domains'
  // region mappings; every *_errors / dangling / orphaned field must be zero
  // in a healthy system. O(fbufs + region entries).
  struct AuditCounts {
    std::uint64_t live_fbufs = 0;         // allocated, neither free-listed nor dead
    std::uint64_t free_listed_fbufs = 0;
    std::uint64_t dead_fbufs = 0;
    std::uint64_t free_list_entries = 0;
    // Live fbufs whose originator domain has died: §3.3 requires them to
    // drain to destruction when their references drop, never to a free list.
    // Nonzero is legal mid-drain; a free-listed one counts as an error.
    std::uint64_t orphaned_live_fbufs = 0;
    // Free-list slots violating their invariants: entry dead, not marked
    // free_listed, in the wrong size class, or on a defunct allocator.
    std::uint64_t free_list_errors = 0;
    // Region mappings of alive domains that point into no current fbuf —
    // per-domain mappings left dangling after an fbuf was destroyed.
    std::uint64_t dangling_mappings = 0;
  };
  AuditCounts Audit() const;
  std::uint64_t LiveFbufCount() const;
  std::uint64_t FreeListedFbufCount() const;
  // Region pages owned by |d| as originator (live + free-listed fbufs).
  std::uint64_t PagesOwnedBy(DomainId d) const;
  std::size_t FreeListSize(DomainId domain, PathId path) const;

  // Human-readable snapshot of the whole fbuf system: allocators, live
  // fbufs, free lists, swap residency. For debugging and the examples.
  std::string DebugDump() const;

 private:
  struct Allocator {
    DomainId domain = kInvalidDomainId;
    PathId path = kNoPath;
    bool cached = false;
    bool defunct = false;
    std::uint32_t chunks = 0;
    std::uint64_t outstanding = 0;  // carved fbufs not yet destroyed
    SimTime last_alloc = 0;         // machine-clock time of the last allocation
    AddressSpace va{AddressSpace::Empty{}};
    // LIFO free lists, one per fbuf size in pages.
    std::map<std::uint64_t, std::vector<FbufId>> free_lists;
    std::vector<std::pair<VirtAddr, std::uint64_t>> chunk_ranges;
  };

  static std::uint64_t AllocatorKey(DomainId d, PathId p) {
    return (static_cast<std::uint64_t>(d) << 32) | p;
  }

  Allocator& GetAllocator(DomainId domain, PathId path, bool cached);
  Status GrowAllocator(Allocator& a, std::uint64_t pages);
  Status AllocateInternal(Domain& originator, PathId path, std::uint64_t bytes,
                          bool want_volatile, Fbuf** out, bool clear_pages);
  // Re-materializes any reclaimed pages of a free-listed fbuf being reused.
  Status EnsureMaterialized(Fbuf* fb);
  Status SecureInternal(Fbuf* fb);
  void RestoreOriginatorWrite(Fbuf* fb);
  // Final-release handling in the owner: free-list (cached) or destroy.
  void ReturnToOwner(Fbuf* fb);
  // Unmaps everywhere, frees frames, releases VA.
  void DestroyFbuf(Fbuf* fb);
  void ReleaseAllocatorIfDrained(Allocator& a);
  void DeliverNotices(DomainId from, DomainId to);
  // Flushes now, or schedules a flush event when a loop is attached.
  void ScheduleFlush(DomainId holder, DomainId owner);
  // The VM fault hook for the fbuf region.
  Status RegionFault(Domain& d, Vpn vpn, Access access);
  // Brings a paged-out (or never-materialized) fbuf page back for |d|.
  Status PageIn(Domain& d, Vpn vpn, Fbuf* fb);
  void DropSwap(FbufId id);

  Machine* machine_;
  FbufConfig config_;
  PathRegistry paths_;
  Rpc* rpc_ = nullptr;
  EventLoop* loop_ = nullptr;
  PressureHooks* pressure_ = nullptr;
  RingNoticeTransport* notice_transport_ = nullptr;
  // (holder, owner) pairs with a flush event already in flight.
  std::set<std::pair<DomainId, DomainId>> flush_scheduled_;
  AddressSpace region_va_{AddressSpace::Empty{}};
  std::map<std::uint64_t, Allocator> allocators_;
  std::vector<std::unique_ptr<Fbuf>> fbufs_;
  // (holder, owner) -> fbuf ids freed by holder, awaiting delivery to owner.
  std::map<std::pair<DomainId, DomainId>, std::vector<FbufId>> pending_notices_;
  // Backing store for paged-out in-use fbuf pages: (fbuf, page) -> bytes.
  std::map<std::pair<FbufId, std::uint64_t>, std::vector<std::uint8_t>> swap_;
};

}  // namespace fbufs

#endif  // SRC_FBUF_FBUF_SYSTEM_H_
