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

}  // namespace fbufs
