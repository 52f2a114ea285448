// Operation counters for the simulated machine.
//
// Counters let tests assert on mechanism ("a cached reuse performs zero
// page-table updates") and let benches decompose where time goes.
//
// The field list is an X-macro: Since() and ToString() both iterate
// FBUFS_SIMSTATS_FIELDS, so adding a counter here is the only step — it can
// no longer silently vanish from Since() because the author forgot to
// mirror it.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <string>

// X(name) for every counter, in display order.
#define FBUFS_SIMSTATS_FIELDS(X)                                                   \
  X(pt_updates)              /* physical page-table entry updates */               \
  X(tlb_flushes)             /* per-page TLB/cache consistency actions */          \
  X(tlb_misses)              /* software-serviced TLB refills */                   \
  X(page_faults)             /* faults taken (COW, zero-fill, absent) */           \
  X(prot_faults)             /* access violations (protection errors) */           \
  X(pages_cleared)           /* security page clears */                            \
  X(pages_swapped_out)       /* fbuf pages written to backing store */             \
  X(pages_swapped_in)        /* fbuf pages faulted back in */                      \
  X(pages_allocated)         /* physical frames handed out */                      \
  X(pages_freed)             /* physical frames returned */                        \
  X(bytes_copied)            /* bytes physically copied */                         \
  X(va_allocs)               /* virtual address range reservations */              \
  X(ipc_calls)               /* cross-domain RPCs */                               \
  X(fbuf_allocs)             /* fbuf allocations (cached hits included) */         \
  X(fbuf_cache_hits)         /* allocations served from a free list */             \
  X(fbuf_transfers)          /* cross-domain fbuf transfers */                     \
  X(dealloc_notices)         /* piggybacked deallocation notices */                \
  X(dealloc_messages)        /* explicit deallocation messages */                  \
  X(degraded_pdus)           /* PDUs sent via the copy fallback */                 \
  X(pressure_sweeps)         /* reclamation sweeps (evented + emergency) */        \
  X(pressure_pages_reclaimed) /* pages recovered by sweeps */

namespace fbufs {

struct SimStats {
#define FBUFS_SIMSTATS_DECL(name) std::uint64_t name = 0;
  FBUFS_SIMSTATS_FIELDS(FBUFS_SIMSTATS_DECL)
#undef FBUFS_SIMSTATS_DECL

  void Reset() { *this = SimStats{}; }

  // Difference against an earlier snapshot (field-wise, assumes monotonic).
  SimStats Since(const SimStats& base) const;

  // Human-readable multi-line dump for benches and debugging.
  std::string ToString() const;
};

}  // namespace fbufs

#endif  // SRC_SIM_STATS_H_
