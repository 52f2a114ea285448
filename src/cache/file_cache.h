// Unified buffer cache: file blocks stored in fbufs.
//
// §2.2 of the paper notes that with fbufs "the network subsystem can share
// physical memory dynamically with other subsystems, applications and file
// caches". This module builds that out: a kernel file cache whose blocks
// are fbufs, so
//   * a cache hit hands an application a read-only mapping of the block —
//     a zero-copy read();
//   * the same block can be shared by any number of readers, safely,
//     because fbufs are immutable;
//   * cache memory competes with network buffering in one physical pool,
//     and eviction returns fbufs to their path's free list.
// (This is the design direction that later became IO-Lite.)
#ifndef SRC_CACHE_FILE_CACHE_H_
#define SRC_CACHE_FILE_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "src/fbuf/fbuf_system.h"
#include "src/msg/message.h"

namespace fbufs {

using FileId = std::uint32_t;

struct FileCacheConfig {
  std::uint64_t block_bytes = 8192;
  std::uint64_t capacity_blocks = 64;
  // A 1993-class disk: average access latency and sustained bandwidth.
  SimTime disk_access_ns = 15 * kMillisecond;
  std::uint64_t disk_mbps = 16;  // 2 MB/s
};

class FileCache {
 public:
  // The cache runs in the kernel; blocks are allocated on per-consumer
  // paths so repeat readers hit warm mappings.
  FileCache(FbufSystem* fsys, const FileCacheConfig& config = FileCacheConfig());

  FileCache(const FileCache&) = delete;
  FileCache& operator=(const FileCache&) = delete;

  // Reads one block: on a hit the reader gains a reference to the cached
  // fbuf (mapping work only the first time); on a miss the block is "read
  // from disk" into a fresh kernel fbuf. *out views exactly the block's
  // bytes. The reader must Release() the message when done. On any failure
  // — backing region exhausted on the miss path, or a partial reference
  // grant — the Status propagates and every reference already granted to
  // |reader| is rolled back (nothing is silently staged; PR 4 discipline).
  Status Read(FileId file, std::uint64_t block, Domain& reader, Message* out);

  // Releases a reader's references from a previous Read.
  Status Release(const Message& m, Domain& reader);

  // --- Pinning ---------------------------------------------------------------
  // A pinned block cannot be evicted — not by capacity churn, not by a
  // pressure Shrink — until its pin count drops to zero. The serve
  // subsystem pins blocks it has in flight on the network and unpins when
  // the flow's dealloc notice returns (§3.3), so pressure sweeps can never
  // pull a frame out from under an unfinished transfer.
  // Pin/Unpin address resident blocks only: kNotFound otherwise.
  Status Pin(FileId file, std::uint64_t block);
  Status Unpin(FileId file, std::uint64_t block);
  bool IsPinned(FileId file, std::uint64_t block) const;
  bool Resident(FileId file, std::uint64_t block) const;

  // Drops clean blocks, least recently used first, until at most
  // |target_blocks| remain (a pressure-driven eviction). Pinned blocks are
  // passed over, so the sweep may leave more than |target_blocks| resident.
  // Returns blocks evicted.
  std::uint64_t Shrink(std::uint64_t target_blocks);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  // Memory-driven evictions: capacity + pressure.
  std::uint64_t evictions() const { return capacity_evictions_ + pressure_evictions_; }
  std::uint64_t capacity_evictions() const { return capacity_evictions_; }
  std::uint64_t pressure_evictions() const { return pressure_evictions_; }
  std::uint64_t disk_reads() const { return disk_reads_; }
  std::uint64_t resident_blocks() const { return blocks_.size(); }
  std::uint64_t pinned_blocks() const { return pinned_blocks_; }
  std::uint64_t total_pins() const { return total_pins_; }
  // Eviction attempts refused because the victim was pinned: one per pinned
  // block an LRU scan passes over, so a scan that finds every resident
  // block pinned counts them all.
  std::uint64_t pin_blocked_evictions() const { return pin_blocked_evictions_; }
  const FileCacheConfig& config() const { return config_; }

 private:
  struct Key {
    FileId file;
    std::uint64_t block;
    bool operator<(const Key& o) const {
      return file != o.file ? file < o.file : block < o.block;
    }
  };

  struct CachedBlock {
    // The kernel-originated fbuf read from disk; immutable.
    Message content;
    std::list<Key>::iterator lru_pos;
    // In-flight references held by servers (FileServer pins blocks for the
    // duration of a network transfer); eviction refuses pinned blocks.
    std::uint32_t pins = 0;
  };

  // Why a block is being dropped; each reason has its own counter.
  enum class EvictReason { kCapacity, kPressure };

  void TouchLru(const Key& key, CachedBlock& cb);
  Status FetchFromDisk(const Key& key, Message* out);
  // Drops the resident, unpinned block |it| points at.
  void Evict(std::map<Key, CachedBlock>::iterator it, EvictReason reason);
  // Evicts the least-recently-used unpinned block; false when every
  // resident block is pinned (the cache transiently exceeds its target).
  bool EvictOneUnpinned(EvictReason reason);

  FbufSystem* fsys_;
  FileCacheConfig config_;
  Domain* kernel_;
  PathId cache_path_;
  std::map<Key, CachedBlock> blocks_;
  std::list<Key> lru_;  // front = most recent

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t capacity_evictions_ = 0;
  std::uint64_t pressure_evictions_ = 0;
  std::uint64_t disk_reads_ = 0;
  std::uint64_t pinned_blocks_ = 0;
  std::uint64_t total_pins_ = 0;
  std::uint64_t pin_blocked_evictions_ = 0;
};

}  // namespace fbufs

#endif  // SRC_CACHE_FILE_CACHE_H_
