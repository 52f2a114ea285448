// Physical memory: a real byte arena divided into page frames.
//
// Data in the simulator genuinely lives here. Zero-copy transfer is
// observable as two domains translating to the same frame; a copying
// facility performs an actual memcpy between frames. Frames are reference
// counted so copy-on-write and shared fbuf mappings can share them.
//
// Frame order: fresh frames come from a watermark, in ascending order from
// 0. A freed frame goes on a free list and is reused last-in first-out,
// ahead of any frame never handed out. Set-up lists no frames, so apart
// from the zeroed reference-count table it is O(1) in the number of frames.
#ifndef SRC_SIM_PHYS_MEM_H_
#define SRC_SIM_PHYS_MEM_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/stats.h"

namespace fbufs {

// Index of a physical page frame.
using FrameId = std::uint32_t;
constexpr FrameId kInvalidFrame = static_cast<FrameId>(-1);

class PhysMem {
 public:
  // |frames| page frames of backing store (64 MB at the default 16384). The
  // arena is reserved zero-filled but faulted in lazily: the OS supplies a
  // zero page on a frame's first touch, so untouched frames cost neither
  // set-up time nor resident memory. Throws std::bad_alloc when the
  // reservation fails.
  PhysMem(std::uint32_t frames, SimClock* clock, const CostParams* costs, SimStats* stats);

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // Re-points the clock charges land on. A multicore Machine switches this
  // to the active CPU lane's clock (frame clearing runs on the lane that
  // asked for the frame).
  void set_clock(SimClock* clock) { clock_ = clock; }

  // Allocates one frame with reference count 1. If |clear| is true the frame
  // is filled with zeros and the page-clear cost is charged (security
  // clearing of memory recycled across protection domains).
  // Returns nullopt when physical memory is exhausted.
  std::optional<FrameId> Allocate(bool clear);

  // Increments the reference count (a new mapping shares the frame).
  void Ref(FrameId frame);

  // Drops one reference; frees the frame when the count reaches zero.
  void Unref(FrameId frame);

  std::uint32_t RefCount(FrameId frame) const;

  // Direct access to the frame's bytes (kPageSize of them). Only the VM
  // layer and devices (DMA) should touch frames directly; domain code goes
  // through Domain accessors so permissions and TLB behaviour apply.
  std::uint8_t* Data(FrameId frame);
  const std::uint8_t* Data(FrameId frame) const;

  std::uint32_t total_frames() const { return total_frames_; }
  std::uint32_t free_frames() const {
    return static_cast<std::uint32_t>(free_list_.size()) + (total_frames_ - next_fresh_);
  }

 private:
  std::uint32_t total_frames_;
  SimClock* clock_;
  const CostParams* costs_;
  SimStats* stats_;
  struct FreeDeleter {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };
  // calloc, not a value-initialized vector: the vector would write (and so
  // fault in) every page before the first event.
  std::unique_ptr<std::uint8_t[], FreeDeleter> arena_;
  std::vector<std::uint32_t> refcount_;
  std::vector<FrameId> free_list_;  // freed frames, reused last-in first-out
  FrameId next_fresh_ = 0;          // frames [next_fresh_, total_frames_) never allocated
};

}  // namespace fbufs

#endif  // SRC_SIM_PHYS_MEM_H_
