// CampaignReport: the machine-readable record of one fault campaign.
//
// Serializes per-phase goodput / drop / retransmission deltas, the armed
// fault schedule, sweep rows, and every audit's results to
// CAMPAIGN_<name>.json, printed by the same writer as BENCH_*.json
// (src/obs/json.h). The JSON is a pure function of the campaign's
// deterministic state — same seed, same schedule => byte-identical file,
// which is the acceptance test for campaign determinism.
#ifndef SRC_FAULT_REPORT_H_
#define SRC_FAULT_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/auditor.h"
#include "src/obs/json.h"
#include "src/sim/clock.h"

namespace fbufs {

class CampaignReport {
 public:
  struct Phase {
    std::string label;       // the fault (or "start"/"end") opening the phase
    SimTime start_ns = 0;
    SimTime end_ns = 0;
    std::uint64_t delivered_bytes = 0;  // sink bytes during the phase
    double goodput_mbps = 0;
    std::uint64_t drops = 0;            // link + switch + channel drops
    std::uint64_t retransmissions = 0;  // conversation campaigns
  };

  struct ScheduledFault {
    std::string label;
    std::string kind;
    SimTime at_ns = 0;
    SimTime duration_ns = 0;
    std::uint32_t percent = 0;
  };

  struct AuditEntry {
    std::string label;
    SimTime at_ns = 0;
    std::vector<HostAuditResult> hosts;
    // Final audits: one per attached conversation, labelled.
    std::vector<std::pair<std::string, SwpAuditResult>> conversations;
    bool passed = false;
  };

  using Row = std::vector<std::pair<std::string, double>>;

  CampaignReport(std::string name, std::uint64_t seed)
      : name_(std::move(name)), seed_(seed) {}

  const std::string& name() const { return name_; }

  void AddScheduledFault(ScheduledFault f) { schedule_.push_back(std::move(f)); }
  void AddPhase(Phase p) { phases_.push_back(std::move(p)); }
  void AddAudit(AuditEntry a) { audits_.push_back(std::move(a)); }
  // Free-form numeric rows for sweep campaigns (one row per sweep point).
  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  // Campaign-specific verdict beyond the audits (e.g. "flow failed cleanly,
  // receiver data survived").
  void SetOutcome(bool ok, std::string note) {
    outcome_ok_ = ok;
    outcome_note_ = std::move(note);
  }

  const std::vector<Phase>& phases() const { return phases_; }
  const std::vector<AuditEntry>& audits() const { return audits_; }
  bool audits_passed() const;
  bool passed() const { return outcome_ok_ && audits_passed(); }
  const std::string& outcome_note() const { return outcome_note_; }

  Json ToJson() const;
  // Writes CAMPAIGN_<name>.json in the working directory.
  bool Write() const;

 private:
  std::string name_;
  std::uint64_t seed_;
  std::vector<ScheduledFault> schedule_;
  std::vector<Phase> phases_;
  std::vector<AuditEntry> audits_;
  std::vector<Row> rows_;
  bool outcome_ok_ = true;
  std::string outcome_note_;
};

}  // namespace fbufs

#endif  // SRC_FAULT_REPORT_H_
