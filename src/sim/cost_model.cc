#include "src/sim/cost_model.h"

namespace fbufs {

SimTime CostParams::DmaTime(std::uint64_t bytes) const {
  const std::uint64_t cells =
      (bytes + kCellPayloadBytes - 1) / kCellPayloadBytes;
  // Per cell: start-up latency + payload transfer at bus peak + contention.
  const SimTime per_cell_transfer =
      kCellPayloadBytes * 8 * 1000 / bus_peak_mbps;
  return cells * (dma_cell_startup_ns + per_cell_transfer + bus_contention_ns);
}

CostParams CostParams::DecStation5000() { return CostParams{}; }

CostParams CostParams::Zero() {
  CostParams p;
  p.pt_update_ns = 0;
  p.tlb_flush_ns = 0;
  p.tlb_miss_ns = 0;
  p.prot_change_ns = 0;
  p.page_fault_ns = 0;
  p.page_clear_ns = 0;
  p.page_in_ns = 0;
  p.va_alloc_ns = 0;
  p.va_free_ns = 0;
  p.copy_page_ns = 0;
  p.remap_page_overhead_ns = 0;
  p.alloc_page_kernel_ns = 0;
  p.mem_word_ns = 0;
  p.ipc_kernel_user_ns = 0;
  p.ipc_user_user_ns = 0;
  p.cache_pressure_ns = 0;
  p.dispatch_ns = 0;
  p.ring_entry_ns = 0;
  p.ring_doorbell_ns = 0;
  p.proto_pdu_ns = 0;
  p.driver_pdu_ns = 0;
  p.driver_byte_ns = 0;
  p.frag_fixed_ns = 0;
  p.csum_byte_ns = 0;
  p.fbuf_list_marshal_ns = 0;
  p.dma_cell_startup_ns = 0;
  p.bus_contention_ns = 0;
  return p;
}

}  // namespace fbufs
