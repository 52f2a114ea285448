#include "src/msg/message.h"

#include <algorithm>
#include <cassert>

#include "src/vm/machine.h"

namespace fbufs {

Message Message::Leaf(Fbuf* fb, std::uint64_t off, std::uint64_t len) {
  assert(fb != nullptr);
  assert(off + len <= fb->pages * kPageSize);
  auto n = std::make_shared<Node>();
  n->extent = Extent{fb, fb->base + off, len};
  n->len = len;
  return Message(std::move(n));
}

Message Message::Absent(std::uint64_t len) {
  auto n = std::make_shared<Node>();
  n->extent = Extent{nullptr, 0, len};
  n->len = len;
  return Message(std::move(n));
}

Message Message::Concat(const Message& left, const Message& right) {
  if (left.empty()) {
    return right;
  }
  if (right.empty()) {
    return left;
  }
  auto n = std::make_shared<Node>();
  n->left = left.root_;
  n->right = right.root_;
  n->len = left.length() + right.length();
  return Message(std::move(n));
}

void Message::ForEachExtent(const std::function<void(const Extent&)>& fn) const {
  if (!root_) {
    return;
  }
  // Explicit stack: messages can be deep chains of concatenations.
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->left) {
      stack.push_back(n->right.get());
      stack.push_back(n->left.get());
    } else if (n->extent.len > 0) {
      fn(n->extent);
    }
  }
}

std::vector<Extent> Message::Extents() const {
  std::vector<Extent> out;
  ForEachExtent([&out](const Extent& e) { out.push_back(e); });
  return out;
}

std::vector<Fbuf*> Message::Fbufs() const {
  std::vector<Fbuf*> out;
  ForEachExtent([&out](const Extent& e) {
    if (e.fb != nullptr && std::find(out.begin(), out.end(), e.fb) == out.end()) {
      out.push_back(e.fb);
    }
  });
  return out;
}

Message Message::FromExtents(const std::vector<Extent>& extents) {
  Message m;
  // Right-fold so extents stay in order.
  for (auto it = extents.rbegin(); it != extents.rend(); ++it) {
    auto n = std::make_shared<Node>();
    n->extent = *it;
    n->len = it->len;
    m = Concat(Message(std::move(n)), m);
  }
  return m;
}

Message Message::Slice(std::uint64_t off, std::uint64_t len) const {
  std::vector<Extent> kept;
  std::uint64_t pos = 0;
  const std::uint64_t end = off + len;
  ForEachExtent([&](const Extent& e) {
    const std::uint64_t e_end = pos + e.len;
    if (e_end > off && pos < end) {
      const std::uint64_t lo = std::max(pos, off);
      const std::uint64_t hi = std::min(e_end, end);
      Extent part = e;
      part.addr += lo - pos;
      part.len = hi - lo;
      kept.push_back(part);
    }
    pos += e.len;
  });
  return FromExtents(kept);
}

Status Message::CopyOut(Domain& d, std::uint64_t off, void* dst, std::uint64_t len) const {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::uint64_t pos = 0;
  std::uint64_t copied = 0;
  Status status = Status::kOk;
  ForEachExtent([&](const Extent& e) {
    if (!Ok(status) || copied == len) {
      pos += e.len;
      return;
    }
    const std::uint64_t e_end = pos + e.len;
    const std::uint64_t want_end = off + len;
    if (e_end > off + copied && pos < want_end) {
      const std::uint64_t lo = std::max(pos, off + copied);
      const std::uint64_t hi = std::min(e_end, want_end);
      if (e.fb == nullptr) {
        // Absent data reads as zeros.
        std::fill(out + (lo - off), out + (hi - off), 0);
      } else {
        status = d.ReadBytes(e.addr + (lo - pos), out + (lo - off), hi - lo);
      }
      copied += hi - lo;
    }
    pos += e.len;
  });
  if (!Ok(status)) {
    return status;
  }
  return copied == len ? Status::kOk : Status::kTruncated;
}

Status Message::Touch(Domain& d, Access access) const {
  Status status = Status::kOk;
  ForEachExtent([&](const Extent& e) {
    if (!Ok(status) || e.fb == nullptr) {
      return;
    }
    const Status st = d.TouchRange(e.addr, e.len, access);
    if (!Ok(st)) {
      status = st;
    }
  });
  return status;
}

std::size_t Message::NodeCount() const {
  if (!root_) {
    return 0;
  }
  std::size_t count = 0;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    count++;
    if (n->left) {
      stack.push_back(n->left.get());
      stack.push_back(n->right.get());
    }
  }
  return count;
}

}  // namespace fbufs
