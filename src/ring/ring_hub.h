// RingHub: the per-host registry of transfer rings.
//
// Rings are directional and pairwise — one (producer, consumer) pair per
// ring — so a host with a three-domain data path runs several. The hub owns
// them, keyed by the pair, creates them lazily when auto-create is on (the
// protocol stack asks for a ring the first time a delivery crosses a pair),
// and plugs into FbufSystem as its RingNoticeTransport so §3.3 dealloc
// notices ride the rings too: a notice whose (holder, owner) pair has a
// ring — or can get one — becomes a ring entry instead of joining the
// piggyback pending list. A full SQ falls back to the legacy list, which is
// exactly the paper's behavior when the fast path is saturated.
//
// The hub registers a machine termination hook so every ring touching a
// dying domain drains synchronously (notices applied, handoffs aborted)
// before the domain's queues disappear. It must therefore be constructed
// after the FbufSystem — hooks run in registration order, and the fbuf
// sweep must settle holder state before rings apply their queued notices.
#ifndef SRC_RING_RING_HUB_H_
#define SRC_RING_RING_HUB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/fbuf/fbuf_system.h"
#include "src/ring/transfer_ring.h"

namespace fbufs {

class RingHub : public RingNoticeTransport {
 public:
  RingHub(Machine* machine, FbufSystem* fsys, Rpc* rpc, EventLoop* loop,
          RingConfig default_config = RingConfig{}, bool auto_create = true);

  RingHub(const RingHub&) = delete;
  RingHub& operator=(const RingHub&) = delete;

  // Creates (or returns) the ring carrying producer -> consumer traffic.
  TransferRing* CreateRing(Domain& producer, Domain& consumer);

  // Lookup; with auto-create on, makes the ring if both domains are alive.
  // Returns nullptr (caller takes the sync path) otherwise, or when the
  // existing ring is dead.
  TransferRing* RingFor(DomainId producer, DomainId consumer);

  // RingNoticeTransport: route a dealloc notice onto the (holder, owner)
  // ring. False — notice joins the legacy pending list — when there is no
  // ring or its SQ is full.
  bool SubmitDeallocNotice(DomainId holder, DomainId owner, FbufId fb) override;

  // Rings every idle non-empty doorbell (bench epilogue: cut timer tails).
  void FlushAll();

  using Key = std::pair<DomainId, DomainId>;
  const std::map<Key, std::unique_ptr<TransferRing>>& rings() const {
    return rings_;
  }

  // --- Aggregates across all rings (bench JSON) -----------------------------
  std::map<AttrPathId, SimTime> PathOccupancyNs() const;
  std::uint64_t TotalSubmitted() const;
  std::uint64_t TotalDoorbells() const;
  std::uint64_t TotalSqFull() const;

 private:
  Machine* machine_;
  FbufSystem* fsys_;
  Rpc* rpc_;
  EventLoop* loop_;
  RingConfig cfg_;
  bool auto_create_;
  std::map<Key, std::unique_ptr<TransferRing>> rings_;
};

}  // namespace fbufs

#endif  // SRC_RING_RING_HUB_H_
