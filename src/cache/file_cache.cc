#include "src/cache/file_cache.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace fbufs {
namespace {

// kRamp[j] == j mod 256, long enough that a page-sized run can start at any
// of the 256 phases.
constexpr std::array<std::uint8_t, kPageSize + 256> kRamp = [] {
  std::array<std::uint8_t, kPageSize + 256> ramp{};
  for (std::size_t j = 0; j < ramp.size(); ++j) {
    ramp[j] = static_cast<std::uint8_t>(j);
  }
  return ramp;
}();

}  // namespace

FileCache::FileCache(FbufSystem* fsys, const FileCacheConfig& config)
    : fsys_(fsys), config_(config), kernel_(&fsys->machine().kernel()) {
  cache_path_ = fsys_->paths().Register({kernel_->id()});
}

void FileCache::TouchLru(const Key& key, CachedBlock& cb) {
  lru_.erase(cb.lru_pos);
  lru_.push_front(key);
  cb.lru_pos = lru_.begin();
}

Status FileCache::FetchFromDisk(const Key& key, Message* out) {
  Machine& machine = fsys_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kCache);
  PathScope pscope(machine.attribution(), cache_path_);
  TraceSpan span(machine.trace(), TraceCategory::kFbuf, "disk-fetch", key.file, key.block);
  Fbuf* fb = nullptr;
  // Disk DMA overwrites the whole block: no security clearing needed.
  Status st = fsys_->Allocate(*kernel_, cache_path_, config_.block_bytes,
                              /*want_volatile=*/true, &fb, /*clear=*/false);
  if (!Ok(st)) {
    return st;
  }
  // The simulated disk: access latency plus sequential transfer.
  machine.clock().Advance(config_.disk_access_ns);
  machine.clock().Advance(config_.block_bytes * 8 * 1000 / config_.disk_mbps);
  disk_reads_++;
  // Deterministic content so tests can verify identity: byte i of block b of
  // file f is (f*37 + b*11 + i) mod 256, so each page is one run of kRamp.
  for (std::uint64_t page = 0; page < fb->pages; ++page) {
    const FrameId frame = kernel_->DebugFrame(PageOf(fb->base) + page);
    if (frame == kInvalidFrame) {
      fsys_->Free(fb, *kernel_);
      return Status::kNotMapped;
    }
    std::uint8_t* data = machine.pmem().Data(frame);
    const std::uint64_t base = page * kPageSize;
    const std::uint64_t n =
        base < config_.block_bytes ? std::min(kPageSize, config_.block_bytes - base) : 0;
    const std::uint64_t seed = key.file * 37 + key.block * 11 + base;
    std::memcpy(data, kRamp.data() + seed % 256, n);
  }
  *out = Message::Leaf(fb, 0, config_.block_bytes);
  return Status::kOk;
}

void FileCache::Evict(std::map<Key, CachedBlock>::iterator it, EvictReason reason) {
  for (Fbuf* fb : it->second.content.Fbufs()) {
    fsys_->Free(fb, *kernel_);
  }
  lru_.erase(it->second.lru_pos);
  blocks_.erase(it);
  switch (reason) {
    case EvictReason::kCapacity:
      capacity_evictions_++;
      break;
    case EvictReason::kPressure:
      pressure_evictions_++;
      break;
  }
}

bool FileCache::EvictOneUnpinned(EvictReason reason) {
  // Every resident block pinned: the walk below would count each one and
  // find no victim.
  if (pinned_blocks_ == blocks_.size()) {
    pin_blocked_evictions_ += blocks_.size();
    return false;
  }
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    auto bit = blocks_.find(*it);
    if (bit == blocks_.end() || bit->second.pins > 0) {
      pin_blocked_evictions_++;
      continue;
    }
    Evict(bit, reason);
    return true;
  }
  return false;
}

Status FileCache::Read(FileId file, std::uint64_t block, Domain& reader, Message* out) {
  const Key key{file, block};
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    misses_++;
    while (blocks_.size() >= config_.capacity_blocks &&
           EvictOneUnpinned(EvictReason::kCapacity)) {
    }
    Message fetched;
    const Status st = FetchFromDisk(key, &fetched);
    if (!Ok(st)) {
      return st;
    }
    lru_.push_front(key);
    it = blocks_.emplace(key, CachedBlock{fetched, lru_.begin()}).first;
  } else {
    hits_++;
    TouchLru(key, it->second);
  }
  // Grant the reader references; read-only mappings are built on first use
  // and retained afterwards (the block's "path" warms per reader). A
  // partial grant (dead reader) rolls back so the failure leaves the reader
  // holding nothing.
  std::vector<Fbuf*> granted;
  for (Fbuf* fb : it->second.content.Fbufs()) {
    const Status st = fsys_->Transfer(fb, *kernel_, reader);
    if (!Ok(st)) {
      for (Fbuf* g : granted) {
        fsys_->Free(g, reader);
      }
      return st;
    }
    granted.push_back(fb);
  }
  *out = it->second.content;
  return Status::kOk;
}

Status FileCache::Release(const Message& m, Domain& reader) {
  for (Fbuf* fb : m.Fbufs()) {
    const Status st = fsys_->Free(fb, reader);
    if (!Ok(st)) {
      return st;
    }
  }
  return Status::kOk;
}

std::uint64_t FileCache::Shrink(std::uint64_t target_blocks) {
  std::uint64_t evicted = 0;
  while (blocks_.size() > target_blocks &&
         EvictOneUnpinned(EvictReason::kPressure)) {
    evicted++;
  }
  return evicted;
}

Status FileCache::Pin(FileId file, std::uint64_t block) {
  auto it = blocks_.find(Key{file, block});
  if (it == blocks_.end()) {
    return Status::kNotFound;
  }
  if (it->second.pins++ == 0) {
    pinned_blocks_++;
  }
  total_pins_++;
  return Status::kOk;
}

Status FileCache::Unpin(FileId file, std::uint64_t block) {
  auto it = blocks_.find(Key{file, block});
  if (it == blocks_.end()) {
    return Status::kNotFound;
  }
  if (it->second.pins == 0) {
    return Status::kInvalidArgument;
  }
  if (--it->second.pins == 0) {
    pinned_blocks_--;
  }
  total_pins_--;
  return Status::kOk;
}

bool FileCache::IsPinned(FileId file, std::uint64_t block) const {
  auto it = blocks_.find(Key{file, block});
  return it != blocks_.end() && it->second.pins > 0;
}

bool FileCache::Resident(FileId file, std::uint64_t block) const {
  return blocks_.find(Key{file, block}) != blocks_.end();
}

}  // namespace fbufs
