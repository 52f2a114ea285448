#include "src/obs/attribution.h"

namespace fbufs {

const char* CostDomainName(CostDomain d) {
  switch (d) {
    case CostDomain::kVm:
      return "vm";
    case CostDomain::kFbuf:
      return "fbuf";
    case CostDomain::kIpc:
      return "ipc";
    case CostDomain::kBaseline:
      return "baseline";
    case CostDomain::kProto:
      return "proto";
    case CostDomain::kNet:
      return "net";
    case CostDomain::kCache:
      return "cache";
    case CostDomain::kMsg:
      return "msg";
    case CostDomain::kApp:
      return "app";
    case CostDomain::kDispatch:
      return "dispatch";
    case CostDomain::kRing:
      return "ring";
    case CostDomain::kWait:
      return "wait";
    case CostDomain::kOther:
      return "other";
    case CostDomain::kCount:
      break;
  }
  return "?";
}

SimTime Attribution::ByLayer(CostDomain d) const {
  SimTime sum = 0;
  for (const auto& [key, ns] : cells_) {
    if (key.layer == d) {
      sum += ns;
    }
  }
  return sum;
}

SimTime Attribution::ByDomain(DomainId d) const {
  SimTime sum = 0;
  for (const auto& [key, ns] : cells_) {
    if (key.domain == d) {
      sum += ns;
    }
  }
  return sum;
}

SimTime Attribution::ByPath(AttrPathId p) const {
  SimTime sum = 0;
  for (const auto& [key, ns] : cells_) {
    if (key.path == p) {
      sum += ns;
    }
  }
  return sum;
}

SimTime Attribution::ByCpu(std::uint32_t c) const {
  SimTime sum = 0;
  for (const auto& [key, ns] : cells_) {
    if (key.cpu == c) {
      sum += ns;
    }
  }
  return sum;
}

Attribution::Snapshot Attribution::Snapshot::Since(const Snapshot& base) const {
  Snapshot delta;
  delta.total = total - base.total;
  for (const auto& [key, ns] : cells) {
    auto it = base.cells.find(key);
    const SimTime before = it == base.cells.end() ? 0 : it->second;
    if (ns > before) {
      delta.cells[key] = ns - before;
    }
  }
  return delta;
}

}  // namespace fbufs
