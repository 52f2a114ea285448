// Aggregate object: the x-kernel-style immutable message DAG (§3.1, Fig. 2).
//
// A Message is a directed acyclic graph whose leaves reference byte extents
// inside fbufs. Messages are immutable: join/split/clip produce new views
// that share the underlying buffers — no data moves. This is the abstraction
// protocols use: headers are prepended by concatenation, fragmentation is
// slicing, reassembly is joining.
//
// This header is the private (per-domain, heap-allocated) representation;
// stored_message.h provides the integrated form where the DAG itself lives
// in fbufs and crosses domains by reference (§3.2.3).
#ifndef SRC_MSG_MESSAGE_H_
#define SRC_MSG_MESSAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/fbuf/fbuf.h"
#include "src/vm/domain.h"
#include "src/vm/types.h"

namespace fbufs {

// One contiguous run of message bytes.
struct Extent {
  Fbuf* fb = nullptr;  // nullptr for absent data (reads as zeros)
  VirtAddr addr = 0;
  std::uint64_t len = 0;
};

class Message {
 public:
  // The empty message.
  Message() = default;

  // A leaf over [off, off+len) of |fb|'s bytes.
  static Message Leaf(Fbuf* fb, std::uint64_t off, std::uint64_t len);

  // A leaf over the whole (requested) size of |fb|.
  static Message Whole(Fbuf* fb) { return Leaf(fb, 0, fb->bytes); }

  // An "absent data" leaf: |len| bytes that read as zeros and reference no
  // buffer. This is what a safe traversal substitutes for invalid DAG
  // references.
  static Message Absent(std::uint64_t len);

  // Join: logical concatenation, sharing both operands (the paper's buffer
  // aggregation; protocols use it to attach headers and reassemble ADUs).
  static Message Concat(const Message& left, const Message& right);

  // Clip: the sub-message [off, off+len); shares the underlying buffers.
  // Out-of-range requests are truncated to the available bytes.
  Message Slice(std::uint64_t off, std::uint64_t len) const;

  // Split at |at|: {head, tail} views.
  std::pair<Message, Message> Split(std::uint64_t at) const {
    return {Slice(0, at), Slice(at, length() - std::min(at, length()))};
  }

  std::uint64_t length() const { return root_ ? root_->len : 0; }
  bool empty() const { return length() == 0; }

  // Leaf-order walk of the extents.
  void ForEachExtent(const std::function<void(const Extent&)>& fn) const;
  std::vector<Extent> Extents() const;

  // The distinct fbufs this message references, in first-appearance order.
  std::vector<Fbuf*> Fbufs() const;

  // --- Data access through a domain (checked; absent data reads zeros) ------
  Status CopyOut(Domain& d, std::uint64_t off, void* dst, std::uint64_t len) const;
  // Touch one word per page of every extent (the paper's consumer pattern).
  Status Touch(Domain& d, Access access) const;

  // Number of DAG nodes (for integrated storage sizing and tests).
  std::size_t NodeCount() const;

 private:
  struct Node {
    // Leaf when left == nullptr.
    std::shared_ptr<Node> left;
    std::shared_ptr<Node> right;
    Extent extent;  // valid for leaves
    std::uint64_t len = 0;
  };

  explicit Message(std::shared_ptr<Node> root) : root_(std::move(root)) {}

  static Message FromExtents(const std::vector<Extent>& extents);

  std::shared_ptr<Node> root_;
};

}  // namespace fbufs

#endif  // SRC_MSG_MESSAGE_H_
