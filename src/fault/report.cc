#include "src/fault/report.h"

#include <cstdio>
#include <sstream>

namespace fbufs {

namespace {

// Matches the BENCH_*.json number format exactly (%.10g) so campaign and
// bench artifacts diff with the same tooling.
std::string Num(double v) {
  char buf[32];
  if (v != v) {
    return "null";
  }
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Num(std::uint64_t v) { return std::to_string(v); }

std::string Bool(bool b) { return b ? "true" : "false"; }

}  // namespace

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

std::string CampaignReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"campaign\": \"" << name_ << "\",\n";
  os << "  \"seed\": " << seed_ << ",\n";
  os << "  \"schedule\": [\n";
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const ScheduledFault& f = schedule_[i];
    os << "    {\"label\": \"" << f.label << "\", \"kind\": \"" << f.kind
       << "\", \"at_ns\": " << Num(f.at_ns)
       << ", \"duration_ns\": " << Num(f.duration_ns)
       << ", \"percent\": " << f.percent << "}"
       << (i + 1 < schedule_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    os << "    {\"label\": \"" << p.label << "\", \"start_ns\": " << Num(p.start_ns)
       << ", \"end_ns\": " << Num(p.end_ns)
       << ", \"delivered_bytes\": " << Num(p.delivered_bytes)
       << ", \"goodput_mbps\": " << Num(p.goodput_mbps)
       << ", \"drops\": " << Num(p.drops)
       << ", \"retransmissions\": " << Num(p.retransmissions) << "}"
       << (i + 1 < phases_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  if (!rows_.empty()) {
    os << "  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "    {";
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\"" << rows_[r][i].first
           << "\": " << Num(rows_[r][i].second);
      }
      os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
  }
  os << "  \"audits\": [\n";
  for (std::size_t i = 0; i < audits_.size(); ++i) {
    const AuditEntry& a = audits_[i];
    os << "    {\"label\": \"" << a.label << "\", \"at_ns\": " << Num(a.at_ns)
       << ", \"passed\": " << Bool(a.passed) << ",\n";
    os << "     \"hosts\": [\n";
    for (std::size_t h = 0; h < a.hosts.size(); ++h) {
      const HostAuditResult& hr = a.hosts[h];
      os << "       {\"host\": \"" << hr.host
         << "\", \"leaked_frames\": " << Num(hr.leaked_frames)
         << ", \"refcount_mismatches\": " << Num(hr.refcount_mismatches)
         << ", \"dangling_mappings\": " << Num(hr.dangling_mappings)
         << ", \"free_list_errors\": " << Num(hr.free_list_errors)
         << ", \"orphaned_live_fbufs\": " << Num(hr.orphaned_live_fbufs)
         << ", \"live_fbufs\": " << Num(hr.live_fbufs)
         << ", \"free_listed_fbufs\": " << Num(hr.free_listed_fbufs)
         << ", \"passed\": " << Bool(hr.passed) << "}"
         << (h + 1 < a.hosts.size() ? "," : "") << "\n";
    }
    os << "     ]";
    if (!a.conversations.empty()) {
      os << ",\n     \"conversations\": [\n";
      for (std::size_t c = 0; c < a.conversations.size(); ++c) {
        const SwpAuditResult& cr = a.conversations[c].second;
        os << "       {\"flow\": \"" << a.conversations[c].first
           << "\", \"window_wedged\": " << Bool(cr.window_wedged)
           << ", \"unacked\": " << cr.unacked
           << ", \"stashed\": " << Num(cr.stashed)
           << ", \"bytes_copied\": " << Num(cr.bytes_copied)
           << ", \"ledger_pinned\": " << Num(cr.ledger_pinned)
           << ", \"ledger_mismatch\": " << Num(cr.ledger_mismatch)
           << ", \"passed\": " << Bool(cr.passed) << "}"
           << (c + 1 < a.conversations.size() ? "," : "") << "\n";
      }
      os << "     ]";
    }
    os << "}" << (i + 1 < audits_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"outcome_note\": \"" << outcome_note_ << "\",\n";
  os << "  \"passed\": " << Bool(passed()) << "\n";
  os << "}\n";
  return os.str();
}

bool CampaignReport::Write() const {
  const std::string path = "CAMPAIGN_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace fbufs
