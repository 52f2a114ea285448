#include "src/sim/phys_mem.h"

#include <cassert>
#include <cstring>
#include <new>

namespace fbufs {

PhysMem::PhysMem(std::uint32_t frames, SimClock* clock, const CostParams* costs,
                 SimStats* stats)
    : total_frames_(frames),
      clock_(clock),
      costs_(costs),
      stats_(stats),
      arena_(static_cast<std::uint8_t*>(std::calloc(frames, kPageSize))),
      refcount_(frames, 0) {
  if (arena_ == nullptr) {
    throw std::bad_alloc();
  }
}

std::optional<FrameId> PhysMem::Allocate(bool clear) {
  FrameId frame = kInvalidFrame;
  if (!free_list_.empty()) {
    frame = free_list_.back();
    free_list_.pop_back();
  } else if (next_fresh_ < total_frames_) {
    frame = next_fresh_++;
  } else {
    return std::nullopt;
  }
  refcount_[frame] = 1;
  stats_->pages_allocated++;
  if (clear) {
    std::memset(Data(frame), 0, kPageSize);
    clock_->Advance(costs_->page_clear_ns);
    stats_->pages_cleared++;
  }
  return frame;
}

void PhysMem::Ref(FrameId frame) {
  assert(frame < total_frames_ && refcount_[frame] > 0);
  refcount_[frame]++;
}

void PhysMem::Unref(FrameId frame) {
  assert(frame < total_frames_ && refcount_[frame] > 0);
  if (--refcount_[frame] == 0) {
    free_list_.push_back(frame);
    stats_->pages_freed++;
  }
}

std::uint32_t PhysMem::RefCount(FrameId frame) const {
  assert(frame < total_frames_);
  return refcount_[frame];
}

std::uint8_t* PhysMem::Data(FrameId frame) {
  assert(frame < total_frames_);
  return arena_.get() + static_cast<std::size_t>(frame) * kPageSize;
}

const std::uint8_t* PhysMem::Data(FrameId frame) const {
  assert(frame < total_frames_);
  return arena_.get() + static_cast<std::size_t>(frame) * kPageSize;
}

}  // namespace fbufs
