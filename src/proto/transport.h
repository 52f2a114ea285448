// Transport framework: a reliable sliding-window engine with a pluggable
// congestion policy, in the x-kernel tradition.
//
// SWP (src/proto/swp.h) showed *why* fbufs provide copy rather than move
// semantics (§2.1.3): a reliable sender retains references — never copies —
// to transmitted data until it is acknowledged. This header factors SWP's
// engine (retention, cumulative acks, go-back-all retransmission, the
// evented RTO timer, in-order delivery with an out-of-order stash) away from
// its *fixed window*, which becomes one CongestionPolicy among three:
//
//   * FixedWindowPolicy — the classic SWP window: at most W PDUs in flight,
//     loss signals ignored. Under incast this is the transport that
//     collapses: every drop triggers a full-window retransmission storm
//     while the pinned retransmit fbufs inflate memory pressure.
//   * CreditPolicy — ATM-native credit flow control: the receiver advertises
//     an absolute per-flow grant in every ack, sized to its fbuf headroom
//     (PressureManager::CreditFor), and the sender never has more PDUs in
//     flight than its latest grant. The sender physically cannot overrun the
//     receiver's memory.
//   * AimdPolicy — a TCP-like window: slow start, additive increase,
//     multiplicative decrease on RTO or on an ECN echo (SwitchNode marks
//     frames whose per-VCI queue crosses a threshold; the receiver echoes
//     the mark in its next ack).
//
// Retained frames are additionally recorded in a RetransmitLedger
// (src/pressure/retransmit_ledger.h): pinned fbufs == unacked PDUs is an
// audited invariant, the PressureManager can page cold pinned fbufs out to
// backing store, and a mid-retransmit domain termination reclaims the
// ledger instead of leaking it.
//
// Wire format: the 16-byte SwpHeader is unchanged for SWP; credit and AIMD
// transports extend it to 24 bytes with a credit grant and a flags word
// (the ECN echo). Acknowledgements are cumulative in both formats.
#ifndef SRC_PROTO_TRANSPORT_H_
#define SRC_PROTO_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/latency.h"
#include "src/pressure/retransmit_ledger.h"
#include "src/proto/protocol.h"
#include "src/sim/event_loop.h"

namespace fbufs {

struct SwpHeader {
  static constexpr std::uint32_t kData = 0x5350'4441;  // "SPDA"
  static constexpr std::uint32_t kAck = 0x5350'4143;   // "SPAC"

  std::uint32_t type = kData;
  std::uint32_t seq = 0;   // data: frame number | ack: next expected frame
  std::uint64_t len = 0;   // data payload bytes
};
static_assert(sizeof(SwpHeader) == 16);

// The extended header used by the credit and AIMD transports: the SwpHeader
// layout plus a credit grant and flags. Layout-compatible with SwpHeader in
// its first 16 bytes.
struct TransportHeader {
  static constexpr std::uint32_t kFlagEce = 1u << 0;  // congestion echoed

  std::uint32_t type = SwpHeader::kData;
  std::uint32_t seq = 0;
  std::uint64_t len = 0;
  std::uint32_t credit = 0;  // ack: the receiver's current per-flow grant
  std::uint32_t flags = 0;
};
static_assert(sizeof(TransportHeader) == 24);

// Decides when the sender may put a new PDU in flight, and reacts to the
// congestion signals the engine feeds it. Policies are deterministic pure
// state machines — no randomness, no wall clock — so same-seed runs stay
// byte-identical.
class CongestionPolicy {
 public:
  virtual ~CongestionPolicy() = default;

  // May a new PDU enter the network with |in_flight| already unacked?
  virtual bool CanSend(std::size_t in_flight) const = 0;
  // Status surfaced to producers when CanSend refuses. Every refusal status
  // must classify as IsBackpressure so producers park instead of failing.
  virtual Status RefusalStatus() const = 0;
  // A cumulative ack arrived: everything below |ack_seq| is delivered,
  // |newly_acked| PDUs just left the window, |ecn_echo| is the receiver's
  // congestion-experienced echo, |next_seq| the sender's next fresh frame.
  virtual void OnAck(std::uint32_t ack_seq, std::uint32_t newly_acked,
                     bool ecn_echo, std::uint32_t next_seq) {
    (void)ack_seq;
    (void)newly_acked;
    (void)ecn_echo;
    (void)next_seq;
  }
  // The RTO fired with PDUs outstanding (a loss signal).
  virtual void OnTimeout(std::uint32_t next_seq) { (void)next_seq; }
  // The receiver granted an absolute in-flight budget (credit transports).
  virtual void OnCreditGrant(std::uint32_t credits) { (void)credits; }
};

// SWP's window: at most |window| PDUs in flight, forever.
class FixedWindowPolicy : public CongestionPolicy {
 public:
  explicit FixedWindowPolicy(std::uint32_t window) : window_(window) {}

  bool CanSend(std::size_t in_flight) const override {
    return in_flight < window_;
  }
  Status RefusalStatus() const override { return Status::kExhausted; }

 private:
  std::uint32_t window_;
};

// Credit-based flow control: the in-flight budget is whatever the receiver
// last granted. Loss and ECN are ignored — the receiver's memory headroom is
// the only signal, and it is authoritative.
class CreditPolicy : public CongestionPolicy {
 public:
  explicit CreditPolicy(std::uint32_t initial_credits = 2)
      : credits_(initial_credits) {}

  bool CanSend(std::size_t in_flight) const override {
    return in_flight < credits_;
  }
  Status RefusalStatus() const override { return Status::kCreditExhausted; }
  void OnCreditGrant(std::uint32_t credits) override {
    credits_ = credits;
    grants_++;
    if (credits < min_grant_) {
      min_grant_ = credits;
    }
  }

  std::uint64_t grants() const { return grants_; }
  // Smallest grant ever received (shows the pressure squeeze).
  std::uint32_t min_grant() const { return min_grant_; }

 private:
  std::uint32_t credits_;
  std::uint64_t grants_ = 0;
  std::uint32_t min_grant_ = static_cast<std::uint32_t>(-1);
};

// AIMD: slow start to ssthresh, then additive increase (one PDU per window's
// worth of acks); multiplicative decrease on an ECN echo, slow-start restart
// on RTO. The |recover_| guard reacts at most once per window of data to a
// burst of congestion signals (TCP's NewReno recovery point).
class AimdPolicy : public CongestionPolicy {
 public:
  struct Config {
    std::uint32_t initial_cwnd = 1;
    std::uint32_t initial_ssthresh = 32;
    std::uint32_t max_cwnd = 64;
  };

  AimdPolicy() : AimdPolicy(Config{}) {}
  explicit AimdPolicy(const Config& cfg)
      : cfg_(cfg), cwnd_(cfg.initial_cwnd), ssthresh_(cfg.initial_ssthresh) {}

  bool CanSend(std::size_t in_flight) const override {
    return in_flight < cwnd_;
  }
  Status RefusalStatus() const override { return Status::kCongestion; }

  void OnAck(std::uint32_t ack_seq, std::uint32_t newly_acked, bool ecn_echo,
             std::uint32_t next_seq) override {
    if (ecn_echo && ack_seq > recover_) {
      ssthresh_ = cwnd_ / 2 > 1 ? cwnd_ / 2 : 1;
      cwnd_ = ssthresh_;
      recover_ = next_seq;
      ecn_backoffs_++;
      return;  // the halving consumes this ack; growth resumes next ack
    }
    if (cwnd_ < ssthresh_) {
      // Slow start: one PDU per acked PDU, not past ssthresh.
      cwnd_ += newly_acked;
      if (cwnd_ > ssthresh_) {
        cwnd_ = ssthresh_;
      }
    } else {
      // Congestion avoidance: one PDU per window's worth of acks.
      ack_accum_ += newly_acked;
      while (ack_accum_ >= cwnd_) {
        ack_accum_ -= cwnd_;
        cwnd_++;
      }
    }
    if (cwnd_ > cfg_.max_cwnd) {
      cwnd_ = cfg_.max_cwnd;
    }
  }

  void OnTimeout(std::uint32_t next_seq) override {
    ssthresh_ = cwnd_ / 2 > 2 ? cwnd_ / 2 : 2;
    cwnd_ = 1;
    ack_accum_ = 0;
    recover_ = next_seq;
    timeout_backoffs_++;
  }

  std::uint32_t ssthresh() const { return ssthresh_; }
  std::uint64_t ecn_backoffs() const { return ecn_backoffs_; }
  std::uint64_t timeout_backoffs() const { return timeout_backoffs_; }

 private:
  Config cfg_;
  std::uint32_t cwnd_;
  std::uint32_t ssthresh_;
  std::uint32_t ack_accum_ = 0;
  std::uint32_t recover_ = 0;
  std::uint64_t ecn_backoffs_ = 0;
  std::uint64_t timeout_backoffs_ = 0;
};

// The reliable-transport engine. One Transport instance is one side of one
// conversation: Push accepts messages subject to the congestion policy and
// transmits data frames; Pop handles arriving data (cumulative ack, in-order
// delivery) and acks (release retained references). Trace spans and the RTT
// histogram are named after the protocol ("swp-send", "credit.rtt_ns", ...).
class Transport : public Protocol {
 public:
  Transport(std::string name, Domain* domain, ProtocolStack* stack,
            PathId hdr_path, std::unique_ptr<CongestionPolicy> policy,
            bool extended_header);

  // --- Sender side ------------------------------------------------------------
  // Accepts a message when the policy admits it (RefusalStatus otherwise),
  // retains it for possible retransmission, records the pin in the attached
  // ledger, and transmits a data frame.
  Status Push(Message m) override;

  // Retransmits every unacknowledged frame (timer fired). Signals the policy
  // once per invocation when frames were outstanding. Idempotent when
  // nothing is outstanding.
  Status Tick();

  // Drives retransmission from |loop|: every data transmit arms a one-shot
  // timeout |rto| nanoseconds of sender time out. When it fires with frames
  // still outstanding they are retransmitted and the timer re-arms; when the
  // last outstanding frame is acknowledged the pending timeout is cancelled
  // (EventLoop::Cancel), so a fully-acked sender leaves no stale events in
  // the queue.
  void AttachTimer(EventLoop* loop, SimTime rto) {
    loop_ = loop;
    rto_ = rto;
  }

  // Records every pin/release in |ledger| (sender side). The ledger is
  // bookkeeping only — the transport still owns the references.
  void AttachLedger(RetransmitLedger* ledger) { ledger_ = ledger; }
  RetransmitLedger* ledger() const { return ledger_; }

  // Optional latency-decomposition sink (src/obs/latency.h). When attached,
  // every acknowledged PDU contributes wire (last-tx→ack), retransmit
  // (first-tx→last-tx) and pin_hold (push→ack) samples.
  void AttachLatency(LatencyDecomposition* lat) { lat_ = lat; }
  LatencyDecomposition* latency() const { return lat_; }

  // --- Receiver side -----------------------------------------------------------
  // Handles an arriving frame: data frames are acknowledged (cumulative)
  // and delivered upward in order; ack frames release retained references.
  Status Pop(Message m) override;

  // Out-of-band ECN: the fabric calls this before Pop when the arriving data
  // frame crossed a switch queue over its marking threshold (frames are
  // immutable fbufs — the mark cannot be written into the header in flight).
  // The receiver echoes the mark in the ack it sends for that frame.
  void MarkCongestionExperienced() {
    pending_ece_ = true;
    marks_seen_++;
  }

  // The receiver's grant calculator (credit transports): called per ack to
  // size the advertised in-flight budget. Unset, acks advertise an unbounded
  // grant.
  void SetCreditSource(std::function<std::uint32_t()> fn) {
    credit_source_ = std::move(fn);
  }

  // Flow abort: the owning domain was terminated (or the flow failed for
  // good) with frames possibly outstanding. The kernel's §3.3 cleanup
  // already dropped every fbuf reference the domain held; this forgets the
  // transport's bookkeeping — outstanding frames, stash, timers — and
  // reclaims the ledger. Never call it on a live, draining flow.
  void OnFlowAbort();

  // Orderly teardown on a LIVE domain (the peer died or the connection is
  // being closed): drops every reference this conversation still holds —
  // retained outstanding frames on the sender side, stashed out-of-order
  // frames on the receiver side — cancels the timer, and reclaims the
  // ledger. Unlike OnFlowAbort, the references are real and must be freed
  // here; §3.3 cleanup will never run for a domain that stays alive.
  Status Shutdown();

  // Registers a Machine termination hook that calls OnFlowAbort when this
  // transport's own domain dies. The transport must outlive any subsequent
  // DestroyDomain on the machine (true for the world structs that own both).
  void InstallAbortOnTermination();

  bool touches_body() const override { return false; }

  std::uint32_t unacked() const { return static_cast<std::uint32_t>(outstanding_.size()); }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  std::uint64_t delivered_in_order() const { return delivered_in_order_; }
  std::uint64_t timer_fires() const { return timer_fires_; }
  std::uint32_t next_seq() const { return next_seq_; }
  // Receiver-side out-of-order frames still awaiting their gap (nonzero at
  // quiescence means delivery wedged — the fault auditor's concern).
  std::size_t stashed() const { return stash_.size(); }
  SimTime rto() const { return rto_; }
  CongestionPolicy& policy() { return *policy_; }
  const CongestionPolicy& policy() const { return *policy_; }
  std::uint64_t marks_seen() const { return marks_seen_; }
  std::uint64_t ece_echoed() const { return ece_echoed_; }
  bool aborted() const { return aborted_; }

 private:
  Status TransmitData(std::uint32_t seq, const Message& m);
  Status TransmitAck();
  Status DeliverReady();
  void ArmTimer();
  std::uint64_t header_bytes() const {
    return extended_ ? sizeof(TransportHeader) : sizeof(SwpHeader);
  }

  PathId hdr_path_;
  std::unique_ptr<CongestionPolicy> policy_;
  bool extended_;
  RetransmitLedger* ledger_ = nullptr;

  // Span / metric names derived from the protocol name, owned here so the
  // trace can intern stable pointers.
  std::string span_send_;
  std::string span_ack_;
  std::string span_recv_;
  std::string rtt_metric_;

  // Evented retransmission (AttachTimer); null loop means Tick()-driven.
  EventLoop* loop_ = nullptr;
  SimTime rto_ = 0;
  bool timer_pending_ = false;
  EventLoop::EventId timer_id_ = 0;

  // Sender state: retained frames awaiting acknowledgement.
  std::uint32_t next_seq_ = 0;
  std::uint32_t send_base_ = 0;
  std::map<std::uint32_t, Message> outstanding_;

  // Receiver state: next frame to deliver and the out-of-order stash.
  std::uint32_t recv_next_ = 0;
  std::map<std::uint32_t, Message> stash_;

  // Last transmit time per outstanding frame, for the RTT histogram.
  // Retransmission restamps the frame (Karn-style: a retransmitted frame's
  // sample measures its latest transmission, not the first).
  std::map<std::uint32_t, SimTime> send_time_;

  // Latency-decomposition bookkeeping, maintained only while lat_ is
  // attached: when the PDU entered Push and when it first hit the wire.
  LatencyDecomposition* lat_ = nullptr;
  std::map<std::uint32_t, SimTime> pushed_time_;
  std::map<std::uint32_t, SimTime> first_tx_;

  // Receiver-side ECN state: a mark arrived with the frame about to Pop.
  bool pending_ece_ = false;
  std::function<std::uint32_t()> credit_source_;

  bool aborted_ = false;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t delivered_in_order_ = 0;
  std::uint64_t timer_fires_ = 0;
  std::uint64_t marks_seen_ = 0;
  std::uint64_t ece_echoed_ = 0;
};

// The two new transports, packaged like SwpProtocol for worlds and benches.

class CreditTransport : public Transport {
 public:
  CreditTransport(Domain* domain, ProtocolStack* stack, PathId hdr_path,
                  std::uint32_t initial_credits = 2)
      : Transport("credit", domain, stack, hdr_path,
                  std::make_unique<CreditPolicy>(initial_credits),
                  /*extended_header=*/true) {}

  CreditPolicy& credit_policy() { return static_cast<CreditPolicy&>(policy()); }
};

class AimdTransport : public Transport {
 public:
  AimdTransport(Domain* domain, ProtocolStack* stack, PathId hdr_path,
                const AimdPolicy::Config& cfg = AimdPolicy::Config())
      : Transport("aimd", domain, stack, hdr_path,
                  std::make_unique<AimdPolicy>(cfg),
                  /*extended_header=*/true) {}

  AimdPolicy& aimd_policy() { return static_cast<AimdPolicy&>(policy()); }
};

}  // namespace fbufs

#endif  // SRC_PROTO_TRANSPORT_H_
