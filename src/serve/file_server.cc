#include "src/serve/file_server.h"

#include <algorithm>
#include <cstring>

#include "src/obs/lifecycle.h"
#include "src/pressure/backoff.h"
#include "src/sim/trace.h"

namespace fbufs {

FileServer::~FileServer() {
  if (staging_ != nullptr && domain()->alive()) {
    stack_->fsys()->Free(staging_, *domain());
  }
}

Status FileServer::Pop(Message m) {
  Machine& machine = *stack_->machine();
  machine.clock().Advance(machine.costs().proto_pdu_ns);

  // Parse the request line. CopyOut reads through the domain's mappings but
  // charges no bytes_copied: header-sized inspection, not a data copy.
  char line[128] = {0};
  const std::uint64_t n =
      std::min<std::uint64_t>(m.length(), sizeof(line) - 1);
  Status st = m.CopyOut(*domain(), 0, line, n);
  if (!Ok(st)) {
    return st;
  }
  ServeRequest req;
  if (!DecodeRequest(line, &req)) {
    parse_errors_++;
    return Status::kInvalidArgument;
  }
  requests_++;

  LayerScope layer(machine.attribution(), CostDomain::kApp);
  TraceSpan span(machine.trace(), TraceCategory::kProto, "serve", req.file,
                 req.blocks);

  Inflight& fl = inflight_[req.id];
  fl.client = req.client;

  Served served;
  served.request_id = req.id;
  served.client = req.client;
  for (std::uint32_t b = 0; Ok(served.status) && b < req.blocks; ++b) {
    const bool resident = cache_->Resident(req.file, b);
    Message bm;
    st = cache_->Read(req.file, b, *domain(), &bm);
    if (Ok(st)) {
      if (resident) {
        served.hit_blocks++;
      }
      // Pin before the block touches the wire: the flow's dealloc notice
      // (CompleteRequest) is what unpins, so sweeps cannot evict it while
      // the transfer is outstanding. The block is resident (we just read
      // it), so Pin cannot fail.
      cache_->Pin(req.file, b);
      PinRecord rec;
      rec.file = req.file;
      rec.block = b;
      rec.pinned_at = machine.clock().Now();
      const std::vector<Fbuf*> block_fbufs = bm.Fbufs();
      if (!block_fbufs.empty()) {
        rec.fbuf = block_fbufs.front()->id;
      }
      if (machine.lifecycle() != nullptr && rec.fbuf != kInvalidFbufId) {
        machine.lifecycle()->Hop(rec.fbuf, HopKind::kPin, domain()->id(),
                                 "serve", req.id);
      }
      fl.pins.push_back(rec);
      st = SendDown(bm);
      // Our own read reference drops now; the wire keeps the block alive
      // via the pin, not via a serve-domain mapping.
      const Status rel = cache_->Release(bm, *domain());
      if (Ok(st)) {
        st = rel;
      }
      if (Ok(st)) {
        served.blocks++;
        bytes_served_ += cache_->config().block_bytes;
      } else {
        served.status = st;
      }
    } else if (IsBackpressure(st) && pressure_ != nullptr) {
      st = ServeDegraded(req.file, b);
      if (Ok(st)) {
        served.blocks++;
        served.degraded_blocks++;
        bytes_served_ += cache_->config().block_bytes;
      } else {
        served.status = st;
      }
    } else {
      // No pressure manager: the miss-path failure propagates as-is, it is
      // never papered over with a silent copy.
      served.status = st;
    }
  }
  blocks_served_ += served.blocks;
  hit_blocks_ += served.hit_blocks;
  degraded_blocks_ += served.degraded_blocks;
  if (!Ok(served.status)) {
    // Failed mid-serve: nothing stays pinned on behalf of a request that
    // will never complete.
    ReleasePins(req.id);
    aborted_requests_++;
  }
  if (on_served_) {
    on_served_(served);
  }
  return served.status;
}

void FileServer::AttachPressure(PressureManager* pressure,
                                PathId staging_path) {
  pressure_ = pressure;
  staging_path_ = staging_path;
  // Best-effort: if even this fails, ServeDegraded retries per serve.
  EnsureStaging();
}

Status FileServer::EnsureStaging() {
  if (staging_ != nullptr) {
    return Status::kOk;
  }
  // One persistent staging fbuf for the server's lifetime: the degraded
  // path has a bounded memory footprint no matter how many flows it
  // carries, and its memory is reserved up front, not begged for at the
  // bottom of a pressure episode.
  return stack_->fsys()->Allocate(*domain(), staging_path_,
                                  cache_->config().block_bytes,
                                  /*want_volatile=*/true, &staging_);
}

Status FileServer::ServeDegraded(FileId file, std::uint64_t block) {
  Machine& machine = *stack_->machine();
  const std::uint64_t bytes = cache_->config().block_bytes;
  {
    const Status st = EnsureStaging();
    if (!Ok(st)) {
      return st;
    }
  }
  // The block comes off the disk...
  {
    LayerScope layer(machine.attribution(), CostDomain::kCache);
    machine.clock().Advance(cache_->config().disk_access_ns);
    machine.clock().Advance(bytes * 8 * 1000 / cache_->config().disk_mbps);
  }
  // ...into the staging buffer: same deterministic content the cache would
  // hold, so degraded responses are byte-identical to hits.
  std::vector<std::uint8_t> content(bytes);
  for (std::uint64_t i = 0; i < bytes; ++i) {
    content[i] = static_cast<std::uint8_t>(file * 37 + block * 11 + i);
  }
  Status st = domain()->WriteBytes(staging_->base, content.data(), bytes);
  if (!Ok(st)) {
    return st;
  }
  {
    LayerScope layer(machine.attribution(), CostDomain::kBaseline);
    TraceSpan span(machine.trace(), TraceCategory::kFbuf, "serve-degraded",
                   file, block);
    machine.clock().Advance(machine.costs().CopyCost(bytes));
  }
  machine.stats().bytes_copied += bytes;
  machine.stats().degraded_pdus += 1;
  if (machine.lifecycle() != nullptr) {
    machine.lifecycle()->Hop(staging_->id, HopKind::kDegradeCopy,
                             domain()->id(), "serve", block);
  }
  return SendDown(Message::Leaf(staging_, 0, bytes));
}

void FileServer::ReleasePins(std::uint64_t request_id) {
  auto it = inflight_.find(request_id);
  if (it == inflight_.end()) {
    return;
  }
  Machine& machine = *stack_->machine();
  const SimTime now = machine.clock().Now();
  for (const PinRecord& rec : it->second.pins) {
    cache_->Unpin(rec.file, rec.block);
    if (machine.lifecycle() != nullptr && rec.fbuf != kInvalidFbufId) {
      machine.lifecycle()->Hop(rec.fbuf, HopKind::kUnpin, domain()->id(),
                               "serve", request_id);
    }
    if (lat_ != nullptr && now >= rec.pinned_at) {
      lat_->pin_hold.push_back(now - rec.pinned_at);
    }
  }
  inflight_.erase(it);
}

Status FileServer::CompleteRequest(std::uint64_t request_id) {
  if (inflight_.find(request_id) == inflight_.end()) {
    return Status::kNotFound;
  }
  ReleasePins(request_id);
  completed_requests_++;
  return Status::kOk;
}

Status FileServer::AbortRequest(std::uint64_t request_id) {
  if (inflight_.find(request_id) == inflight_.end()) {
    return Status::kNotFound;
  }
  ReleasePins(request_id);
  aborted_requests_++;
  return Status::kOk;
}

}  // namespace fbufs
