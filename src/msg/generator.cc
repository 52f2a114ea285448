#include "src/msg/generator.h"

#include <algorithm>

#include "src/vm/machine.h"

namespace fbufs {

UnitGenerator::UnitGenerator(const Message& m, Domain* d, std::uint64_t unit_size)
    : message_(m), domain_(d), unit_size_(unit_size) {
  extents_ = m.Extents();
  std::uint64_t pos = 0;
  extent_starts_.reserve(extents_.size());
  for (const Extent& e : extents_) {
    extent_starts_.push_back(pos);
    pos += e.len;
  }
  extents_total_ = pos;
}

std::size_t UnitGenerator::LocateExtent(std::uint64_t off, std::uint64_t* within) const {
  auto it = std::upper_bound(extent_starts_.begin(), extent_starts_.end(), off);
  const std::size_t idx = static_cast<std::size_t>(it - extent_starts_.begin()) - 1;
  *within = off - extent_starts_[idx];
  return idx;
}

Status UnitGenerator::Emit(std::uint64_t len, std::vector<std::uint8_t>* out,
                           bool* zero_copy) {
  std::uint64_t within = 0;
  const std::size_t idx = LocateExtent(offset_, &within);
  const bool fits = within + len <= extents_[idx].len;
  *zero_copy = fits;
  out->resize(len);
  const Status st = message_.CopyOut(*domain_, offset_, out->data(), len);
  if (!Ok(st)) {
    return st;
  }
  if (!fits) {
    // The unit straddles a fragment boundary: a real implementation copies
    // it into contiguous storage here.
    LayerScope layer(domain_->machine().attribution(), CostDomain::kMsg);
    domain_->machine().clock().Advance(domain_->machine().costs().CopyCost(len));
    domain_->machine().stats().bytes_copied += len;
    units_copied_++;
  }
  units_returned_++;
  offset_ += len;
  return Status::kOk;
}

Status UnitGenerator::Next(std::vector<std::uint8_t>* out, bool* zero_copy) {
  if (Done()) {
    return Status::kNotFound;
  }
  const std::uint64_t len = std::min(unit_size_, extents_total_ - offset_);
  return Emit(len, out, zero_copy);
}

Status UnitGenerator::NextDelimited(std::uint8_t delimiter, std::vector<std::uint8_t>* out,
                                    bool* zero_copy) {
  if (Done()) {
    return Status::kNotFound;
  }
  // Scan for the delimiter through the checked read path, chunk by chunk.
  std::uint64_t len = 0;
  std::uint8_t buf[256];
  bool found = false;
  while (!found && offset_ + len < extents_total_) {
    const std::uint64_t n =
        std::min<std::uint64_t>(sizeof(buf), extents_total_ - offset_ - len);
    const Status st = message_.CopyOut(*domain_, offset_ + len, buf, n);
    if (!Ok(st)) {
      return st;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      if (buf[i] == delimiter) {
        len += i + 1;
        found = true;
        break;
      }
    }
    if (!found) {
      len += n;
    }
  }
  return Emit(len, out, zero_copy);
}

}  // namespace fbufs
