// InvariantAuditor: checks the paper's §3.3 cleanup rules for real, after
// (and during) a fault campaign.
//
// Host-level invariants, per audited machine:
//   * zero leaked physical frames — every allocated frame is reachable from
//     at least one alive domain's mapping;
//   * frame refcounts equal the number of alive-domain mappings referencing
//     the frame (no silent over/under-counting);
//   * no dangling per-domain region mappings to destroyed fbufs;
//   * free lists consistent (every slot live, marked, right size class, on
//     a live allocator) and never caching a dead originator's fbufs.
//
// Protocol-level invariants (any Transport, checked at quiescence only — an
// open window mid-flow is normal):
//   * the send window is not wedged (nothing unacknowledged once the loop
//     went quiescent);
//   * the receiver stash drained (no out-of-order frame waiting forever);
//   * zero bytes copied — retransmission works from retained immutable
//     fbuf references (§2.1.3), loss or no loss;
//   * when a retransmit ledger is attached, pinned PDUs always equal the
//     sender's unacked window (mid-flow too — the equality is an invariant,
//     not a quiescence property) and the ledger drained at quiescence.
#ifndef SRC_FAULT_AUDITOR_H_
#define SRC_FAULT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fbuf/fbuf_system.h"
#include "src/proto/swp.h"
#include "src/vm/machine.h"

namespace fbufs {

struct HostAuditResult {
  std::string host;
  std::uint64_t leaked_frames = 0;       // allocated, referenced by no alive domain
  std::uint64_t refcount_mismatches = 0; // frame rc != alive-domain mappings
  std::uint64_t dangling_mappings = 0;   // region mapping into no current fbuf
  std::uint64_t free_list_errors = 0;
  std::uint64_t orphaned_live_fbufs = 0; // informational: §3.3 mid-drain state
  std::uint64_t live_fbufs = 0;          // informational
  std::uint64_t free_listed_fbufs = 0;   // informational
  bool passed = false;
};

struct SwpAuditResult {
  bool window_wedged = false;
  std::uint32_t unacked = 0;
  std::uint64_t stashed = 0;
  std::uint64_t bytes_copied = 0;
  // Ledger invariants (zero when no ledger is attached):
  std::uint64_t ledger_pinned = 0;    // PDUs still pinned at audit time
  std::uint64_t ledger_mismatch = 0;  // |pinned PDUs - unacked window|
  bool passed = false;
};

class InvariantAuditor {
 public:
  // Scans every physical frame of |m| against every alive domain's mappings
  // and folds in the fbuf system's own consistency counts.
  static HostAuditResult AuditHost(const std::string& name, Machine& m,
                                   const FbufSystem& fsys);

  // Quiescence-only: |sender| and |receiver| are the transport peers of one
  // conversation sharing |m|. An aborted sender (domain terminated mid-
  // retransmit) passes with an empty, reclaimed ledger — wedged is a live
  // flow that stopped, not a dead one that was cleaned up.
  static SwpAuditResult AuditSwp(const Transport& sender,
                                 const Transport& receiver, Machine& m);
};

}  // namespace fbufs

#endif  // SRC_FAULT_AUDITOR_H_
