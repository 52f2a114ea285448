// Scripted fault schedules: deterministic, timed lists of fault actions.
//
// A FaultSchedule is data, not behavior — a campaign is reproducible because
// the schedule is a plain list of (time, action) pairs that a CampaignRunner
// arms as ordinary EventLoop events. Same schedule + same topology seed =>
// byte-identical trace, which is what turns the simulator into a
// correctness tool: a failure found under fire replays exactly.
#ifndef SRC_FAULT_FAULT_SCHEDULE_H_
#define SRC_FAULT_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/topo/topology.h"

namespace fbufs {

// One timed fault. Which fields matter depends on |kind|; times are absolute
// event-loop times. Actions with a nonzero |duration| restore the knob they
// touched to its pre-fault value at |at| + |duration|.
struct FaultAction {
  enum class Kind {
    kSetLinkLoss,         // topology link |link| drops |percent| from |at| on
    kLossBurst,           // like kSetLinkLoss, restored after |duration|
    kAckPathOnlyLoss,     // SWP world: only the ack (reverse) channel drops
                          // |percent|; forward data path untouched
    kLinkFlap,            // link |link| goes dark (100% loss) for |duration|
    kSqueezeSwitchQueue,  // switch |node| port |port| queue clamps to
                          // |queue_pdus| for |duration| (0 = permanently)
    kTerminateDomain,     // domain named |domain| on host |node| is destroyed
  };

  Kind kind = Kind::kSetLinkLoss;
  SimTime at = 0;
  SimTime duration = 0;  // 0 = permanent
  LinkId link = 0;
  std::uint32_t percent = 0;
  NodeId node = kNoNode;
  std::size_t port = 0;
  std::size_t queue_pdus = 0;
  std::string domain = {};  // kTerminateDomain: domain name on host |node|
  std::string label;        // phase label in the campaign report
};

struct FaultSchedule {
  std::string name;
  std::vector<FaultAction> actions;

  FaultSchedule& Add(FaultAction a) {
    actions.push_back(std::move(a));
    return *this;
  }
};

const char* FaultKindName(FaultAction::Kind k);

}  // namespace fbufs

#endif  // SRC_FAULT_FAULT_SCHEDULE_H_
