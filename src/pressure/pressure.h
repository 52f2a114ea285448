// Memory-pressure manager: watermarks, reclamation sweeps, degradation.
//
// The paper's shared fbuf pool has a soft spot §3.3 only partially
// addresses: a slow or greedy domain can sit on fbufs until every other
// path starves, and the allocator's only answer is an error return. This
// subsystem makes exhaustion a survivable regime instead of a terminal one:
//
//   * Watermarks. The pool is "under pressure" when free physical frames
//     drop below the low watermark. Every allocation checks (cheaply); the
//     first crossing schedules a reclamation sweep on the event loop, so
//     memory drains back before allocations start failing.
//   * Reclamation sweep. In rising order of cost: discard the frames of
//     free-listed fbufs (FbufSystem::ReclaimFreeMemory — pure §3.3
//     pageout-daemon behaviour), evict clean FileCache blocks down to a
//     configured floor (they can be re-read from disk), and finally destroy
//     the free lists of idle cached paths (FbufSystem::ShrinkIdlePaths),
//     which gives back region space and chunk quota at the price of cold
//     restarts. The sweep stops as soon as free frames reach the high
//     watermark.
//   * Emergency sweep. An allocation about to fail for lack of frames or
//     region space runs the same sweep synchronously; if anything came
//     back, the allocation is retried once (FbufSystem wires this through
//     the PressureHooks interface).
//   * Degradation. A path whose allocations keep failing is switched to
//     the copy path (see DegradablePath in degradable.h): senders keep
//     making progress at copy speed instead of parking forever. The switch
//     back is automatic: once free frames recover to the high watermark,
//     ModeFor reports zero-copy again.
#ifndef SRC_PRESSURE_PRESSURE_H_
#define SRC_PRESSURE_PRESSURE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/cache/file_cache.h"
#include "src/fbuf/fbuf_system.h"
#include "src/pressure/retransmit_ledger.h"
#include "src/sim/event_loop.h"

namespace fbufs {

struct PressureConfig {
  // Free-frame watermarks. Below |low_free_frames| the pool is under
  // pressure (sweeps trigger); a sweep works until free frames reach
  // |high_free_frames|, and a degraded path returns to zero-copy there.
  std::uint64_t low_free_frames = 64;
  std::uint64_t high_free_frames = 128;
  // The sweep never shrinks an attached FileCache below this many blocks.
  std::uint64_t cache_floor_blocks = 8;
  // Consecutive allocation failures on a path before it degrades to copy.
  std::uint32_t degrade_after_failures = 3;
};

// Whether a path should currently move data zero-copy or via the copy
// fallback.
enum class PathMode { kZeroCopy, kDegraded };

class PressureManager : public PressureHooks {
 public:
  // A cached path allocator that has not served an allocation for this long
  // counts as idle and loses its free lists in the sweep's last stage.
  static constexpr SimTime kPathIdle = 10 * kMillisecond;
  // A retransmit-pinned fbuf this old counts as cold: its retransmission has
  // already waited at least one RTO-scale horizon, so the sweep's pageout
  // stage may write it to backing store (the next retransmission faults it
  // back in at page_in_ns instead of wedging the allocator now).
  static constexpr SimTime kPageoutMinAge = 2 * kMillisecond;

  // Installs itself as |fsys|'s pressure hooks; detaches in the destructor.
  PressureManager(FbufSystem* fsys, const PressureConfig& config = PressureConfig());
  ~PressureManager() override;

  PressureManager(const PressureManager&) = delete;
  PressureManager& operator=(const PressureManager&) = delete;

  // With a loop attached, watermark crossings schedule the sweep as an
  // event; without one the sweep runs synchronously inside Allocate.
  void AttachEventLoop(EventLoop* loop) { loop_ = loop; }
  // Clean blocks of |cache| become reclaimable (evicted toward the floor).
  void AttachFileCache(FileCache* cache) { cache_ = cache; }

  // Registers a transport's pinned-retransmit ledger. The sweep gains a
  // pageout stage: cold pinned fbufs (pinned longer than kPageoutMinAge)
  // are written to backing store — their contents must survive for the
  // retransmission, so unlike free-listed memory they are paged, never
  // discarded. Ledgers must outlive the manager.
  void AttachRetransmitLedger(const RetransmitLedger* ledger) {
    ledgers_.push_back(ledger);
  }

  // --- Credit flow control ----------------------------------------------------
  // The receiver-side grant calculator: how many PDUs of |pdu_pages| pages
  // each of |flows| senders may keep in flight, given current free frames
  // minus the low-watermark reserve. Clamped to [1, max_credit]: the floor
  // avoids credit deadlock (a flow with zero credit never generates the ack
  // that would re-grant it), the ceiling bounds how much one ack can open.
  // As the pool approaches the low watermark the grant shrinks toward 1 —
  // this is how memory pressure propagates backward into the network.
  std::uint32_t CreditFor(std::uint64_t pdu_pages, std::uint32_t flows,
                          std::uint32_t max_credit) const;

  // PressureHooks:
  void OnAllocate() override;
  std::uint64_t OnAllocationFailure(std::uint64_t pages_needed) override;

  // --- Degradation state machine --------------------------------------------
  // Current mode for |path|. A degraded path auto-restores to zero-copy
  // when free frames have recovered to the high watermark.
  PathMode ModeFor(PathId path);
  // A zero-copy allocation on |path| failed with a backpressure status.
  // Returns the mode to use from now on (kDegraded once the consecutive-
  // failure threshold is reached).
  PathMode RecordAllocFailure(PathId path);
  // A zero-copy allocation succeeded: the failure streak resets.
  void RecordAllocSuccess(PathId path);

  bool UnderPressure() const;

  // True while any path this manager tracks is currently degraded (the
  // auto-restore check in ModeFor applies, so a recovered pool reports
  // false). Backs the path-registration admission gate.
  bool AnyPathDegraded();

  std::uint64_t sweeps() const { return sweeps_; }
  std::uint64_t admissions_refused() const { return fsys_->paths().refused(); }
  std::uint64_t pages_reclaimed() const { return pages_reclaimed_; }
  std::uint64_t degradations() const { return degradations_; }
  std::uint64_t restorations() const { return restorations_; }
  std::uint64_t pages_paged_out() const { return pages_paged_out_; }

 private:
  struct PathState {
    PathMode mode = PathMode::kZeroCopy;
    std::uint32_t consecutive_failures = 0;
  };

  std::uint64_t FreeFrames() const;
  // One reclamation pass toward |target_free| frames; returns pages freed.
  std::uint64_t Sweep(std::uint64_t target_free);
  // The sweep's pageout stage: page cold ledger-pinned fbufs to backing
  // store until |target_free| frames are free or the cold set is exhausted.
  void PageOutColdPinned(std::uint64_t target_free);

  FbufSystem* fsys_;
  PressureConfig config_;
  EventLoop* loop_ = nullptr;
  FileCache* cache_ = nullptr;
  std::vector<const RetransmitLedger*> ledgers_;
  std::uint64_t pages_paged_out_ = 0;
  bool sweep_scheduled_ = false;
  bool in_sweep_ = false;
  std::map<PathId, PathState> path_states_;

  std::uint64_t sweeps_ = 0;
  std::uint64_t pages_reclaimed_ = 0;
  std::uint64_t degradations_ = 0;
  std::uint64_t restorations_ = 0;
};

}  // namespace fbufs

#endif  // SRC_PRESSURE_PRESSURE_H_
