#include "src/fault/auditor.h"

#include <vector>

namespace fbufs {

HostAuditResult InvariantAuditor::AuditHost(const std::string& name, Machine& m,
                                            const FbufSystem& fsys) {
  HostAuditResult r;
  r.host = name;

  // Count, per physical frame, the mappings alive domains still hold on it.
  // Dead domains' tombstones keep no entries (DestroyDomain unreferenced
  // them), so every allocated frame must be explained by an alive mapping —
  // a frame with references but no mapping is leaked for good: nobody can
  // ever reach it to free it.
  std::vector<std::uint32_t> mapping_count(m.pmem().total_frames(), 0);
  for (std::size_t i = 0; i < m.domain_count(); ++i) {
    Domain* d = m.domain(static_cast<DomainId>(i));
    if (d == nullptr || !d->alive()) {
      continue;
    }
    for (const auto& [vpn, entry] : d->entries()) {
      if (entry.frame != kInvalidFrame && entry.frame < mapping_count.size()) {
        mapping_count[entry.frame]++;
      }
    }
  }
  for (FrameId f = 0; f < m.pmem().total_frames(); ++f) {
    const std::uint32_t rc = m.pmem().RefCount(f);
    if (rc == mapping_count[f]) {
      continue;
    }
    if (rc > 0 && mapping_count[f] == 0) {
      r.leaked_frames++;
    } else {
      r.refcount_mismatches++;
    }
  }

  const FbufSystem::AuditCounts c = fsys.Audit();
  r.dangling_mappings = c.dangling_mappings;
  r.free_list_errors = c.free_list_errors;
  r.orphaned_live_fbufs = c.orphaned_live_fbufs;
  r.live_fbufs = c.live_fbufs;
  r.free_listed_fbufs = c.free_listed_fbufs;

  r.passed = r.leaked_frames == 0 && r.refcount_mismatches == 0 &&
             r.dangling_mappings == 0 && r.free_list_errors == 0;
  return r;
}

SwpAuditResult InvariantAuditor::AuditSwp(const Transport& sender,
                                          const Transport& receiver,
                                          Machine& m) {
  SwpAuditResult r;
  r.unacked = sender.unacked();
  r.window_wedged = r.unacked > 0 && !sender.aborted();
  r.stashed = receiver.stashed();
  r.bytes_copied = m.stats().bytes_copied;
  if (const RetransmitLedger* ledger = sender.ledger()) {
    r.ledger_pinned = ledger->pinned_pdus();
    const std::uint64_t unacked = sender.unacked();
    r.ledger_mismatch = r.ledger_pinned > unacked ? r.ledger_pinned - unacked
                                                  : unacked - r.ledger_pinned;
  }
  r.passed = !r.window_wedged && r.stashed == 0 && r.bytes_copied == 0 &&
             r.ledger_pinned == 0 && r.ledger_mismatch == 0;
  return r;
}

}  // namespace fbufs
