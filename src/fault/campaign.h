// CampaignRunner: arms a FaultSchedule as EventLoop events against a live
// world and records what happens.
//
// The runner does not drive traffic — the campaign's bench starts its flows
// (TopologyRunner::RunFlows, or an SWP producer) on the same loop, and the
// armed fault events fire interleaved with the traffic's own events at their
// scheduled times. Around every fault (and at start/finish) the runner
// snapshots delivered bytes / drops / retransmissions, so Finish() can cut
// the run into per-phase goodput deltas. Audits — mid-campaign or final —
// run the InvariantAuditor over every attached host; the final audit also
// checks every attached conversation (quiescence is the only time a clean
// window is required).
//
// A campaign attaches what its world has:
//   * AttachTopology: faults address links/switches/hosts of a Topology and
//     goodput is read from the TopologyRunner's flow sinks;
//   * AddConversation (repeatable): one transport conversation each — the
//     SWP pair, or the many flows of an incast fabric; the final audit
//     checks every conversation's window, stash and pinned-retransmit
//     ledger;
//   * AttachChannels: the SWP pair's two LossyChannels, whose drops join
//     every sample — kAckPathOnlyLoss turns the ack channel's knob, because
//     only SWP has the retransmission machinery that makes pure ack loss
//     recoverable.
#ifndef SRC_FAULT_CAMPAIGN_H_
#define SRC_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/auditor.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/report.h"
#include "src/proto/swp.h"
#include "src/proto/test_protocols.h"
#include "src/topo/topo_runner.h"
#include "src/topo/topology.h"

namespace fbufs {

class CampaignRunner {
 public:
  CampaignRunner(std::string name, std::uint64_t seed, EventLoop* loop)
      : loop_(loop), report_(std::move(name), seed) {}

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  void AttachTopology(Topology* topo, TopologyRunner* runner) {
    topo_ = topo;
    runner_ = runner;
  }

  // The SWP pair's data- and ack-direction channels.
  void AttachChannels(LossyChannel* data_channel, LossyChannel* ack_channel) {
    data_channel_ = data_channel;
    ack_channel_ = ack_channel;
  }

  // Each conversation is one sender/receiver transport pair with its own
  // sink. Samples sum their goodput and retransmissions; the final audit
  // checks every conversation's window, stash, and pinned-retransmit ledger.
  void AddConversation(const std::string& label, Transport* sender,
                       Transport* receiver, SinkProtocol* sink,
                       Machine* machine) {
    conversations_.push_back(Conversation{label, sender, receiver, sink, machine});
  }

  // Includes |machine| in every audit. |fsys| must be the machine's fbuf
  // system.
  void AddAuditedHost(const std::string& label, Machine* machine,
                      FbufSystem* fsys) {
    audited_.push_back(AuditedHost{label, machine, fsys});
  }

  // Schedules every action (plus its restore event, for bounded faults) and
  // takes the campaign's opening sample. Call before running traffic.
  void Arm(const FaultSchedule& schedule);

  // Schedules a mid-campaign host audit (conversations are excluded: an
  // open window mid-flow is normal, not a wedge).
  void ScheduleAudit(SimTime at, const std::string& label);

  // Campaign-specific verdict recorded alongside the audits.
  void SetOutcome(bool ok, std::string note) {
    report_.SetOutcome(ok, std::move(note));
  }

  // After the traffic ran the loop to quiescence: closes the last phase,
  // runs the final audit (with every conversation's wedge check), and
  // yields the finished report.
  CampaignReport Finish();

 private:
  struct AuditedHost {
    std::string label;
    Machine* machine = nullptr;
    FbufSystem* fsys = nullptr;
  };

  struct Conversation {
    std::string label;
    Transport* sender = nullptr;
    Transport* receiver = nullptr;
    SinkProtocol* sink = nullptr;
    Machine* machine = nullptr;
  };

  struct Sample {
    SimTime at = 0;
    std::string label;
    std::uint64_t delivered = 0;
    std::uint64_t drops = 0;
    std::uint64_t retransmissions = 0;
  };

  void TakeSample(const std::string& label);
  // Drops a phase marker (campaign start, each fault, each restore, end)
  // into the trace of every attached machine, so exported timelines carry
  // the fault schedule alongside the kernel spans.
  void MarkPhase(const std::string& label);
  void Apply(const FaultAction& a);
  void RunAudit(const std::string& label, bool final);
  Machine* MachineFor(const FaultAction& a);

  EventLoop* loop_;
  CampaignReport report_;

  Topology* topo_ = nullptr;
  TopologyRunner* runner_ = nullptr;

  LossyChannel* data_channel_ = nullptr;
  LossyChannel* ack_channel_ = nullptr;

  std::vector<Conversation> conversations_;
  std::vector<AuditedHost> audited_;
  std::vector<Sample> samples_;
  bool finished_ = false;
};

}  // namespace fbufs

#endif  // SRC_FAULT_CAMPAIGN_H_
