// Calibrated cost model for the simulated machine.
//
// Every primitive the simulator performs (page-table update, TLB consistency
// action, TLB miss, page fault, page clear, byte copy, IPC crossing, ...)
// charges a cost from this table to the host's SimClock. The default values
// are fitted to the DecStation 5000/200 (25 MHz MIPS R3000) figures reported
// in the fbufs paper, so that the per-page costs of Table 1 and the curve
// shapes of Figures 3-6 emerge from the same operation sequences the paper
// describes, rather than being hard-coded in the benches.
//
// Calibration anchors from the paper (all per 4 KB page unless noted):
//   - cached/volatile fbuf transfer:   3 us  (two software TLB misses)
//   - volatile, uncached fbuf:        21 us  (map/unmap in both domains)
//   - cached, non-volatile fbuf:      29 us  (raise + restore write protect)
//   - plain (uncached, non-volatile): 47 us  (sum of the above mechanisms)
//   - Mach copy-on-write:            159 us  (lazy pmap update: 2 faults)
//   - physical copy:                 204 us  (~20 MB/s copy bandwidth)
//   - page clear (fill with zeros):   57 us
//   - DASH-style remap ping-pong:     22 us
#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <cstdint>

#include "src/sim/clock.h"

namespace fbufs {

// Simulated page size. The DecStation 5000/200 used 4 KB pages.
constexpr std::uint64_t kPageSize = 4096;
constexpr std::uint64_t kPageShift = 12;

static_assert((std::uint64_t{1} << kPageShift) == kPageSize);

// Payload bytes of one ATM cell (48 of the 53-byte cell). The adapter DMAs
// cell by cell, and a one-cell control message (an ack, a dealloc notice)
// is this long on the wire.
constexpr std::uint64_t kCellPayloadBytes = 48;

// All members are simulated nanoseconds unless the name says otherwise.
struct CostParams {
  // --- Virtual memory primitives -------------------------------------------
  // Update one physical (machine-dependent) page-table entry.
  SimTime pt_update_ns = 3500;
  // TLB/cache consistency action for one page after a mapping change.
  SimTime tlb_flush_ns = 2000;
  // Service one software-filled TLB miss (MIPS R3000 refill handler).
  SimTime tlb_miss_ns = 1500;
  // Raise or restore write protection on one page, including the kernel trap
  // needed to reach the VM system (used by non-volatile fbufs).
  SimTime prot_change_ns = 13000;
  // Take and service one page fault (trap, lock VM structures, map, return).
  SimTime page_fault_ns = 70250;
  // Fill one page with zeros (security clearing of newly allocated memory).
  SimTime page_clear_ns = 57000;
  // Bring one page back from backing store (disk access + transfer; fbufs
  // are pageable, §2.1.3).
  SimTime page_in_ns = 20 * kMillisecond;
  // Find/reserve a free virtual address range (per buffer, not per page).
  SimTime va_alloc_ns = 10000;
  // Release a virtual address range (per buffer).
  SimTime va_free_ns = 5000;
  // Copy one full page between buffers (memory-bandwidth bound).
  SimTime copy_page_ns = 201000;
  // Extra per-page cost of a general-purpose remap facility (DASH style):
  // updating the high-level machine-independent map in addition to the
  // low-level page tables, on both the unmap and map side.
  SimTime remap_page_overhead_ns = 9500;
  // Per-page cost of general-purpose kernel buffer allocation (finding,
  // accounting and entering a page through the full VM path). The fbuf
  // region's streamlined per-domain allocators avoid this.
  SimTime alloc_page_kernel_ns = 11500;
  // Touch (read or write) one word through the cache.
  SimTime mem_word_ns = 80;

  // --- IPC ------------------------------------------------------------------
  // Round-trip null RPC crossing the kernel/user boundary (Mach 3.0 class).
  SimTime ipc_kernel_user_ns = 95000;
  // Round-trip null RPC between two user domains (two kernel entries).
  SimTime ipc_user_user_ns = 145000;
  // Extra per-PDU cost charged per protection domain beyond two on a data
  // path: models the TLB/instruction-cache pressure the paper observes when a
  // third domain (no shared libraries) joins the path.
  SimTime cache_pressure_ns = 30000;

  // --- Dispatch ---------------------------------------------------------------
  // Per-item cost of running work through an evented dispatch queue (run
  // queue manipulation + context switch to the servicing thread). Charged
  // only on the multicore path (num_cpus > 1); the synchronous single-CPU
  // model folds this into its IPC crossing constants.
  SimTime dispatch_ns = 4000;

  // --- Transfer rings ----------------------------------------------------------
  // Write or read one descriptor slot of a shared-memory submission or
  // completion ring (a few cache lines touched; no kernel involvement).
  SimTime ring_entry_ns = 700;
  // Ring the consumer's doorbell: one uncached/MMIO-class store plus the
  // memory barrier before it. The wakeup it triggers is charged separately
  // as an IPC crossing — this is only the producer-side store.
  SimTime ring_doorbell_ns = 1000;

  // --- Protocol processing ---------------------------------------------------
  // Per-PDU control-path cost of one protocol layer (header build/parse,
  // demux, session lookup). Fitted so the receiving host's CPU load matches
  // the paper's §4 measurements (88% at 16 KB PDUs, 55% at 32 KB, cached).
  SimTime proto_pdu_ns = 48000;
  // Per-PDU device-driver cost (interrupt handling, buffer bookkeeping,
  // per-cell descriptor management).
  SimTime driver_pdu_ns = 250000;
  // Per-byte driver-side cost (descriptor rings and cache effects scale
  // with PDU size on the DecStation).
  SimTime driver_byte_ns = 6;
  // Fixed fragmentation overhead charged once per message that needs
  // fragmenting (the paper's "anomaly" that sets in above one PDU).
  SimTime frag_fixed_ns = 120000;
  // Internet checksum cost per byte summed.
  SimTime csum_byte_ns = 12;
  // Per-fbuf cost of translating an aggregate object into an fbuf list at a
  // domain boundary and rebuilding it on the other side (steps 2a/3c of the
  // base mechanism — eliminated by the integrated transfer of §3.2.3).
  SimTime fbuf_list_marshal_ns = 2500;

  // --- I/O subsystem ----------------------------------------------------------
  // DMA start-up latency per ATM cell on the TurboChannel (limits the Osiris
  // board to ~367 Mbps even though the bus peaks at 800 Mbps).
  SimTime dma_cell_startup_ns = 566;
  // Additional per-cell stall from CPU/memory contention on the bus
  // (reduces attainable I/O throughput to ~285 Mbps).
  SimTime bus_contention_ns = 301;
  // Peak TurboChannel bandwidth, megabits per second.
  std::uint64_t bus_peak_mbps = 800;
  // Net link bandwidth after ATM cell overhead, megabits per second
  // (622 Mbps OC-12 minus cell tax = 516 Mbps).
  std::uint64_t link_net_mbps = 516;

  // --- Derived helpers ---------------------------------------------------------
  // Cost of copying |bytes| bytes (pro-rated from copy_page_ns).
  SimTime CopyCost(std::uint64_t bytes) const {
    return bytes * copy_page_ns / kPageSize;
  }
  // Cost of checksumming |bytes| bytes.
  SimTime ChecksumCost(std::uint64_t bytes) const { return bytes * csum_byte_ns; }
  // Time for |bytes| of payload to cross the link.
  SimTime WireTime(std::uint64_t bytes) const {
    return bytes * 8 * 1000 / link_net_mbps;  // bits / (Mbit/s) = microseconds
  }
  // Time for the adapter to DMA |bytes| over the bus, cell by cell.
  SimTime DmaTime(std::uint64_t bytes) const;

  // The DecStation 5000/200 defaults (same values as member initializers);
  // named so tests and benches can reset explicitly.
  static CostParams DecStation5000();
  // A free machine: all costs zero. Useful for functional tests that assert
  // on behaviour, not time.
  static CostParams Zero();
};

}  // namespace fbufs

#endif  // SRC_SIM_COST_MODEL_H_
