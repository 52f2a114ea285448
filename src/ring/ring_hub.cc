#include "src/ring/ring_hub.h"

#include <utility>

namespace fbufs {

RingHub::RingHub(Machine* machine, FbufSystem* fsys, Rpc* rpc, EventLoop* loop,
                 RingConfig default_config, bool auto_create)
    : machine_(machine),
      fsys_(fsys),
      rpc_(rpc),
      loop_(loop),
      cfg_(default_config),
      auto_create_(auto_create) {
  machine_->AddTerminationHook([this](Domain& d) {
    for (auto& [key, ring] : rings_) {
      ring->OnDomainTerminated(d);
    }
  });
}

TransferRing* RingHub::CreateRing(Domain& producer, Domain& consumer) {
  const Key key{producer.id(), consumer.id()};
  auto it = rings_.find(key);
  if (it != rings_.end()) {
    return it->second.get();
  }
  auto ring = std::make_unique<TransferRing>(
      machine_, fsys_, rpc_, loop_, producer, consumer, cfg_,
      "ring/" + producer.name() + ">" + consumer.name());
  TransferRing* raw = ring.get();
  rings_.emplace(key, std::move(ring));
  return raw;
}

TransferRing* RingHub::RingFor(DomainId producer, DomainId consumer) {
  if (producer == consumer) {
    return nullptr;
  }
  auto it = rings_.find(Key{producer, consumer});
  if (it != rings_.end()) {
    return it->second->dead() ? nullptr : it->second.get();
  }
  if (!auto_create_) {
    return nullptr;
  }
  Domain* p = machine_->domain(producer);
  Domain* c = machine_->domain(consumer);
  if (p == nullptr || c == nullptr || !p->alive() || !c->alive()) {
    return nullptr;
  }
  return CreateRing(*p, *c);
}

bool RingHub::SubmitDeallocNotice(DomainId holder, DomainId owner, FbufId fb) {
  TransferRing* ring = RingFor(holder, owner);
  if (ring == nullptr) {
    return false;
  }
  const Fbuf* f = fsys_->Get(fb);
  const AttrPathId path = f != nullptr ? f->path : kAttrNoPath;
  return Ok(ring->SubmitDealloc(fb, path));
}

void RingHub::FlushAll() {
  for (auto& [key, ring] : rings_) {
    ring->Flush();
  }
}

std::map<AttrPathId, SimTime> RingHub::PathOccupancyNs() const {
  std::map<AttrPathId, SimTime> out;
  for (const auto& [key, ring] : rings_) {
    for (const auto& [path, ns] : ring->PathOccupancyNs()) {
      out[path] += ns;
    }
  }
  return out;
}

std::uint64_t RingHub::TotalSubmitted() const {
  std::uint64_t n = 0;
  for (const auto& [key, ring] : rings_) {
    n += ring->stats().submitted;
  }
  return n;
}

std::uint64_t RingHub::TotalDoorbells() const {
  std::uint64_t n = 0;
  for (const auto& [key, ring] : rings_) {
    n += ring->stats().doorbells;
  }
  return n;
}

std::uint64_t RingHub::TotalSqFull() const {
  std::uint64_t n = 0;
  for (const auto& [key, ring] : rings_) {
    n += ring->stats().sq_full;
  }
  return n;
}

}  // namespace fbufs
