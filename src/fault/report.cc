#include "src/fault/report.h"

#include <cstdio>
#include <utility>

namespace fbufs {

bool CampaignReport::audits_passed() const {
  if (audits_.empty()) {
    return false;  // a campaign that never audited proves nothing
  }
  for (const AuditEntry& a : audits_) {
    if (!a.passed) {
      return false;
    }
  }
  return true;
}

Json CampaignReport::ToJson() const {
  Json::Array schedule;
  for (const ScheduledFault& f : schedule_) {
    schedule.push_back(Json::Object{{"label", f.label}, {"kind", f.kind}, {"at_ns", f.at_ns},
                                    {"duration_ns", f.duration_ns}, {"percent", f.percent}});
  }
  Json::Array phases;
  for (const Phase& p : phases_) {
    phases.push_back(Json::Object{{"label", p.label}, {"start_ns", p.start_ns},
                                  {"end_ns", p.end_ns}, {"delivered_bytes", p.delivered_bytes},
                                  {"goodput_mbps", p.goodput_mbps}, {"drops", p.drops},
                                  {"retransmissions", p.retransmissions}});
  }
  Json::Array audits;
  for (const AuditEntry& a : audits_) {
    Json::Array hosts;
    for (const HostAuditResult& hr : a.hosts) {
      hosts.push_back(Json::Object{{"host", hr.host},
                                   {"leaked_frames", hr.leaked_frames},
                                   {"refcount_mismatches", hr.refcount_mismatches},
                                   {"dangling_mappings", hr.dangling_mappings},
                                   {"free_list_errors", hr.free_list_errors},
                                   {"orphaned_live_fbufs", hr.orphaned_live_fbufs},
                                   {"live_fbufs", hr.live_fbufs},
                                   {"free_listed_fbufs", hr.free_listed_fbufs},
                                   {"passed", hr.passed}});
    }
    Json::Object entry{{"label", a.label}, {"at_ns", a.at_ns}, {"passed", a.passed},
                       {"hosts", std::move(hosts)}};
    if (!a.conversations.empty()) {
      Json::Array conversations;
      for (const auto& [flow, cr] : a.conversations) {
        conversations.push_back(Json::Object{
            {"flow", flow}, {"window_wedged", cr.window_wedged}, {"unacked", cr.unacked},
            {"stashed", cr.stashed}, {"bytes_copied", cr.bytes_copied},
            {"ledger_pinned", cr.ledger_pinned}, {"ledger_mismatch", cr.ledger_mismatch},
            {"passed", cr.passed}});
      }
      entry.emplace_back("conversations", std::move(conversations));
    }
    audits.push_back(std::move(entry));
  }
  Json::Object doc{{"campaign", name_}, {"seed", seed_}, {"schedule", std::move(schedule)},
                   {"phases", std::move(phases)}};
  if (!rows_.empty()) {
    Json::Array rows;
    for (const Row& row : rows_) {
      rows.push_back(Json::Object(row.begin(), row.end()));
    }
    doc.emplace_back("rows", std::move(rows));
  }
  doc.emplace_back("audits", std::move(audits));
  doc.emplace_back("outcome_note", outcome_note_);
  doc.emplace_back("passed", passed());
  return doc;
}

bool CampaignReport::Write() const {
  const std::string path = "CAMPAIGN_" + name_ + ".json";
  if (!WriteJsonFile(path, ToJson())) {
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace fbufs
