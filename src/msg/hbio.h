// The high-bandwidth I/O interface the paper proposes in §5.2, as a library.
//
// The UNIX read/write interface has copy semantics and accepts unaligned
// buffers anywhere in the address space, which defeats every VM-based
// transfer technique. This channel is the proposed alternative: programs
// exchange immutable buffer aggregates. A producer obtains fbuf-backed
// buffers, fills them, and Puts an aggregate; a consumer Gets the aggregate
// and reads it in place (or through the UnitGenerator at its own record
// granularity). A compatibility ReadCopy() shows what the old interface
// costs.
#ifndef SRC_MSG_HBIO_H_
#define SRC_MSG_HBIO_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "src/fbuf/endpoint.h"
#include "src/ipc/rpc.h"
#include "src/msg/generator.h"
#include "src/msg/message.h"

namespace fbufs {

class HbioChannel {
 public:
  // A unidirectional channel from |producer| to |consumer|.
  HbioChannel(FbufSystem* fsys, Rpc* rpc, EndpointManager* endpoints, Domain* producer,
              Domain* consumer, std::size_t queue_capacity = 64)
      : fsys_(fsys),
        rpc_(rpc),
        producer_(producer),
        consumer_(consumer),
        capacity_(queue_capacity) {
    endpoint_ = endpoints->Create(*producer, {producer->id(), consumer->id()});
    endpoints_ = endpoints;
  }

  ~HbioChannel() { Close(); }

  HbioChannel(const HbioChannel&) = delete;
  HbioChannel& operator=(const HbioChannel&) = delete;

  // --- Producer side -----------------------------------------------------------
  // A writable, path-cached I/O buffer. The producer fills it through its
  // domain accessors and wraps it in a Message (possibly aggregating many).
  Status GetBuffer(std::uint64_t bytes, Fbuf** out) {
    return endpoints_->AllocateBuffer(endpoint_, *producer_, bytes, /*want_volatile=*/true,
                                      out);
  }

  // Sends an aggregate: transfers references to the consumer domain (one
  // IPC crossing) and queues it. The producer's references are released —
  // copy semantics mean it could keep them by re-Transferring to itself.
  Status Put(const Message& m) {
    if (queue_.size() >= capacity_) {
      return Status::kExhausted;
    }
    rpc_->ChargeCrossing(*producer_, *consumer_);
    for (Fbuf* fb : m.Fbufs()) {
      const Status st = fsys_->Transfer(fb, *producer_, *consumer_);
      if (!Ok(st)) {
        return st;
      }
      const Status free_st = fsys_->Free(fb, *producer_);
      if (!Ok(free_st)) {
        return free_st;
      }
    }
    queue_.push_back(m);
    return Status::kOk;
  }

  // --- Consumer side -----------------------------------------------------------
  // Dequeues the next aggregate; the consumer reads it in place and must
  // call Done() when finished.
  std::optional<Message> Get() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    Message m = queue_.front();
    queue_.pop_front();
    return m;
  }

  // Releases the consumer's references on a Get()-returned aggregate.
  Status Done(const Message& m) {
    for (Fbuf* fb : m.Fbufs()) {
      const Status st = fsys_->Free(fb, *consumer_);
      if (!Ok(st)) {
        return st;
      }
    }
    return Status::kOk;
  }

  // Record-granular consumption (§5.2's generator operation).
  UnitGenerator Reader(const Message& m, std::uint64_t unit_size) {
    return UnitGenerator(m, consumer_, unit_size);
  }

  // --- Legacy compatibility ------------------------------------------------------
  // The old interface: copies the aggregate into the caller's contiguous
  // private buffer, paying the memory-bandwidth cost the new interface
  // avoids. Provided so applications can migrate incrementally.
  Status ReadCopy(const Message& m, void* buf, std::uint64_t len) {
    const std::uint64_t n = std::min(len, m.length());
    LayerScope layer(fsys_->machine().attribution(), CostDomain::kMsg);
    const Status st = m.CopyOut(*consumer_, 0, buf, n);
    if (!Ok(st)) {
      return st;
    }
    Machine& machine = fsys_->machine();
    machine.clock().Advance(machine.costs().CopyCost(n));
    machine.stats().bytes_copied += n;
    return Status::kOk;
  }

  // Destroys the endpoint (and thereby the path and its buffers).
  void Close() {
    if (endpoint_ != nullptr && endpoint_->alive) {
      // Drop anything still queued, push the deallocation notices through
      // (endpoint teardown forces the exchange), then kill the path.
      while (auto m = Get()) {
        Done(*m);
      }
      fsys_->FlushNotices(consumer_->id(), producer_->id());
      endpoints_->Destroy(endpoint_);
    }
  }

  std::size_t queued() const { return queue_.size(); }
  Endpoint* endpoint() { return endpoint_; }

 private:
  FbufSystem* fsys_;
  Rpc* rpc_;
  EndpointManager* endpoints_ = nullptr;
  Domain* producer_;
  Domain* consumer_;
  std::size_t capacity_;
  Endpoint* endpoint_ = nullptr;
  std::deque<Message> queue_;
};

}  // namespace fbufs

#endif  // SRC_MSG_HBIO_H_
