#include "src/serve/serve_world.h"

#include <cassert>
#include <utility>

namespace fbufs {

namespace {
constexpr double kClientLinkMbps = 155.0;  // per-client access link (TAXI rate)
constexpr std::uint32_t kBaseVci = 40;     // client i listens on kBaseVci + i
constexpr std::uint16_t kPort = 80;
}  // namespace

ServeWorld::ServeWorld(const ServeWorldConfig& config)
    : cfg_(config), topo_(kTopoSeed) {
  auto srv = std::make_unique<SimHost>(cfg_.host, HostRole::kSender, kBaseVci,
                                       kPort, "server");
  SimHost* server = srv.get();
  server_node_ = topo_.AddHost(std::move(srv));
  for (std::size_t i = 0; i < cfg_.clients; ++i) {
    const std::uint32_t vci = kBaseVci + static_cast<std::uint32_t>(i);
    auto cl = std::make_unique<SimHost>(cfg_.host, HostRole::kReceiver, vci,
                                        kPort, "client" + std::to_string(i));
    SimHost* raw = cl.get();
    const NodeId n = topo_.AddHost(std::move(cl));
    const LinkId link =
        topo_.AddLink(server_node_, n, &raw->machine.costs(),
                      "wire/" + std::to_string(i), kClientLinkMbps);
    client_legs_.push_back(Leg{server_node_, n, vci, {Hop{link, kNoNode}}});
  }

  // The cache and the server protocol live on the server host; responses
  // must fit one PDU per block so the wire accounting below (one claim per
  // block) holds.
  assert(cfg_.cache.block_bytes + 64 <= cfg_.host.pdu_size &&
         "a cache block must fit one PDU with headers");
  cache_ = std::make_unique<FileCache>(&server->fsys, cfg_.cache);
  Domain* app = server->source->domain();
  file_server_ =
      std::make_unique<FileServer>(app, server->stack.get(), cache_.get());
  file_server_->set_below(server->udp.get());
  file_server_->set_on_served(
      [this](const FileServer::Served& s) { OnServed(s); });

  // The frontend domain injects requests; it is a third protection domain
  // on the server machine, so the stack's crossing cost model sees it.
  frontend_dom_ = server->machine.CreateDomain("frontend");
  server->stack->set_domain_count(server->stack->domain_count() + 1);
  frontend_ = std::make_unique<RequestSource>(frontend_dom_, server->stack.get());
  std::vector<DomainId> req_hops{frontend_dom_->id()};
  if (app->id() != frontend_dom_->id()) {
    req_hops.push_back(app->id());
  }
  request_path_ = server->fsys.paths().Register(req_hops);

  if (cfg_.attach_pressure) {
    pressure_ = std::make_unique<PressureManager>(&server->fsys);
    pressure_->AttachEventLoop(&loop_);
    pressure_->AttachFileCache(cache_.get());
    // Degraded staging path: the app domain down to the kernel, the same
    // route a served block takes.
    std::vector<DomainId> stage_hops{app->id()};
    if (server->udp->domain()->id() != stage_hops.back()) {
      stage_hops.push_back(server->udp->domain()->id());
    }
    if (server->machine.kernel().id() != stage_hops.back()) {
      stage_hops.push_back(server->machine.kernel().id());
    }
    file_server_->AttachPressure(pressure_.get(),
                                 server->fsys.paths().Register(stage_hops));
  }
  if (cfg_.use_rings) {
    server->EnableRings(&loop_);
  }

  // Staged PDUs go to the wire through the pump event, so the synchronous
  // and ring transports (where PDUs materialize later, during ring drains)
  // share one path.
  server->driver->set_on_transmit(
      [this, server](std::vector<std::uint8_t> payload, std::uint32_t) {
        server->staged.push_back(
            SimHost::StagedPdu{std::move(payload), server->machine.clock().Now()});
        SchedulePump();
      });
}

ServeRunStats ServeWorld::Run(const std::vector<ServeRequestSpec>& schedule) {
  stats_ = ServeRunStats{};
  pending_.clear();
  overflow_.clear();
  wire_claims_.clear();
  server().staged.clear();
  inflight_ = 0;
  const SimTime t_start = loop_.Now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ServeRequestSpec spec = schedule[i];
    loop_.ScheduleAtLeast(spec.at, "arrive/" + std::to_string(i),
                          [this, spec] { Arrive(spec); });
  }
  // Drain to quiescence. With rings a quiescent point can still hold
  // partial batches the flush timer has not pushed out; FlushAll forces
  // them and the loop continues until nothing moves at all.
  while (true) {
    const std::uint64_t dispatched = loop_.Run();
    if (server().ring_hub != nullptr &&
        (!pending_.empty() || !overflow_.empty() || !wire_claims_.empty())) {
      server().ring_hub->FlushAll();
      if (!loop_.empty()) {
        continue;
      }
    }
    if (dispatched == 0 && loop_.empty()) {
      break;
    }
  }
  // Anything still pending at quiescence can never finish (a deferred
  // delivery that was dropped on the floor): abort it so its pins come
  // back and the §3.3 audit sees a clean server.
  std::vector<std::uint64_t> stuck;
  for (const auto& [id, p] : pending_) {
    stuck.push_back(id);
  }
  for (const std::uint64_t id : stuck) {
    stats_.unfinished++;
    stats_.failed++;
    file_server_->AbortRequest(id);
    pending_.erase(id);
  }
  inflight_ = 0;

  stats_.elapsed_ns = loop_.Now() - t_start;
  if (stats_.elapsed_ns > 0) {
    stats_.goodput_mbps = static_cast<double>(stats_.delivered_bytes) * 8.0 *
                          1000.0 / static_cast<double>(stats_.elapsed_ns);
  }
  if (stats_.served_blocks > 0) {
    stats_.hit_ratio = static_cast<double>(stats_.hit_blocks) /
                       static_cast<double>(stats_.served_blocks);
  }
  return stats_;
}

void ServeWorld::Arrive(const ServeRequestSpec& spec) {
  if (inflight_ >= cfg_.max_inflight) {
    overflow_.push_back(spec);
    return;
  }
  Issue(spec);
}

void ServeWorld::Issue(const ServeRequestSpec& spec) {
  const std::uint64_t id = next_id_++;
  Pending p;
  p.spec = spec;
  p.issue_at = loop_.Now();
  p.backoff.stall_horizon = cfg_.stall_horizon;
  p.backoff.last_progress = loop_.Now();
  if (latency_enabled_) {
    // Admission wait: nominal arrival to issue (zero unless the inflight
    // window pushed the request through the overflow queue).
    lat_.queue_wait.push_back(loop_.Now() >= spec.at ? loop_.Now() - spec.at
                                                     : 0);
  }
  pending_.emplace(id, std::move(p));
  inflight_++;
  stats_.requests++;
  DeliverRequest(id);
}

void ServeWorld::DeliverRequest(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  ServeRequest req;
  req.id = id;
  req.client = p.spec.client;
  req.file = p.spec.file;
  req.blocks = p.spec.blocks;
  char buf[96];
  const std::size_t n = EncodeRequest(req, buf, sizeof(buf));
  assert(n > 0);

  SimHost& srv = server();
  const SimTime before = srv.machine.clock().Now();
  Fbuf* fb = nullptr;
  Status st = srv.fsys.Allocate(*frontend_dom_, request_path_, n,
                                /*want_volatile=*/true, &fb);
  if (Ok(st)) {
    st = frontend_dom_->WriteBytes(fb->base, buf, n);
  }
  if (Ok(st)) {
    st = srv.stack->Deliver(Message::Leaf(fb, 0, n), frontend_.get(),
                            file_server_.get(), /*down=*/false);
  }
  if (fb != nullptr) {
    srv.fsys.Free(fb, *frontend_dom_);
  }
  srv.cpu.RecordBusy(before, srv.machine.clock().Now());

  auto again = pending_.find(id);
  if (again == pending_.end()) {
    return;  // the synchronous serve already completed or failed the flow
  }
  if (again->second.serve_seen) {
    return;  // OnServed owns the outcome from here
  }
  if (!Ok(st)) {
    if (IsBackpressure(st)) {
      // Ring SQ full or the request-fbuf pool exhausted: park, resubmit.
      ParkRetry(id, "reqpark/" + std::to_string(id),
                [this, id] { DeliverRequest(id); });
    } else {
      FailRequest(id, st);
    }
    return;
  }
  // Ring transport accepted the descriptor: the serve outcome arrives via
  // on_served when the consumer drains its batch.
}

void ServeWorld::OnServed(const FileServer::Served& served) {
  auto it = pending_.find(served.request_id);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  p.serve_seen = true;
  if (!Ok(served.status)) {
    // Whatever the failed serve already staged is a partial response the
    // client must never see: claim those PDUs for discard.
    if (served.blocks > 0) {
      wire_claims_.push_back(
          WireClaim{served.request_id, served.blocks, /*discard=*/true});
      SchedulePump();
    }
    if (IsBackpressure(served.status)) {
      // Out of memory mid-serve: park the whole request and resubmit it
      // (the retry re-enters Pop with the same request line).
      const std::uint64_t id = served.request_id;
      ParkRetry(id, "servepark/" + std::to_string(id), [this, id] {
        auto pit = pending_.find(id);
        if (pit == pending_.end()) {
          return;
        }
        pit->second.serve_seen = false;
        DeliverRequest(id);
      });
    } else {
      FailRequest(served.request_id, served.status);
    }
    return;
  }
  p.backoff.Progress(loop_.Now());
  stats_.served_blocks += served.blocks;
  stats_.hit_blocks += served.hit_blocks;
  stats_.degraded_blocks += served.degraded_blocks;
  p.pdus_left = served.blocks;  // one PDU per block (asserted in the ctor)
  if (served.blocks == 0) {
    FinishRequest(served.request_id);
    return;
  }
  wire_claims_.push_back(
      WireClaim{served.request_id, served.blocks, /*discard=*/false});
  SchedulePump();
}

void ServeWorld::SchedulePump() {
  if (pump_scheduled_) {
    return;
  }
  pump_scheduled_ = true;
  loop_.ScheduleAtLeast(server().machine.clock().Now(), "pump", [this] {
    pump_scheduled_ = false;
    PumpStaged();
  });
}

void ServeWorld::PumpStaged() {
  SimHost& srv = server();
  while (!srv.staged.empty() && !wire_claims_.empty()) {
    SimHost::StagedPdu pdu = std::move(srv.staged.front());
    srv.staged.pop_front();
    WireClaim& claim = wire_claims_.front();
    const std::uint64_t id = claim.id;
    const bool discard = claim.discard;
    if (--claim.remaining == 0) {
      wire_claims_.pop_front();
    }
    if (discard) {
      stats_.discarded_pdus++;
      continue;
    }
    WirePdu(id, std::move(pdu));
  }
}

void ServeWorld::WirePdu(std::uint64_t id, SimHost::StagedPdu pdu) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    // The flow died while its PDUs were queueing for the wire.
    stats_.discarded_pdus++;
    return;
  }
  const Topology::Outcome out = topo_.Carry(
      client_legs_[it->second.spec.client], pdu.payload.size(), pdu.ready);
  if (out.dropped) {
    PduDropped(id);
    return;
  }
  const SimTime rx_dma_done = out.done;
  if (latency_enabled_ && rx_dma_done >= pdu.ready) {
    // Staged-at-driver to RX-DMA-complete: TX DMA + the wire + RX DMA — the
    // PDU's whole time on the network path.
    lat_.wire.push_back(rx_dma_done - pdu.ready);
  }
  loop_.ScheduleAtLeast(rx_dma_done, "deliver/" + std::to_string(id),
                        [this, id, payload = std::move(pdu.payload),
                         rx_dma_done]() mutable {
                          DeliverPduEvent(id, std::move(payload), rx_dma_done);
                        });
}

void ServeWorld::DeliverPduEvent(std::uint64_t id,
                                 std::vector<std::uint8_t> payload,
                                 SimTime rx_dma_done) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;  // flow already failed; its notice is on the way
  }
  Pending& p = it->second;
  SimHost& rx = client(p.spec.client);
  SimClock& clock = rx.machine.clock();
  // The client CPU picks the PDU up no earlier than its DMA completion; it
  // may already be past that point serving another delivery.
  clock.AdvanceToAtLeast(rx_dma_done);
  const SimTime before = clock.Now();
  if (latency_enabled_ && before >= rx_dma_done) {
    // How far past DMA completion the client CPU got around to the PDU.
    lat_.dispatch.push_back(before - rx_dma_done);
  }
  const std::uint64_t sink_before = rx.sink->bytes_received();
  const Status st = rx.driver->DeliverPdu(payload, kBaseVci + p.spec.client,
                                          rx.config.volatile_fbufs);
  if (!Ok(st)) {
    if (IsBackpressure(st)) {
      // The client could not buffer the PDU: park the delivery and retry
      // with the same payload.
      ParkRetry(id, "rxpark/" + std::to_string(id),
                [this, id, payload = std::move(payload), rx_dma_done]() mutable {
                  DeliverPduEvent(id, std::move(payload), rx_dma_done);
                });
      return;
    }
    // Hard failure — typically the client's app domain died mid-download.
    // The flow fails; its pins come back via the abort notice.
    FailRequest(id, st);
    return;
  }
  p.backoff.Progress(loop_.Now());
  const SimTime after = clock.Now();
  rx.cpu.RecordBusy(before, after);
  stats_.delivered_bytes += rx.sink->bytes_received() - sink_before;
  assert(p.pdus_left > 0);
  if (--p.pdus_left == 0) {
    FinishRequest(id);
  }
}

void ServeWorld::PduDropped(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  it->second.dropped++;
  stats_.pdus_dropped++;
  // The dropped PDU still completes the flow's accounting: this is a
  // credit scheme, not a reliability protocol, and a lossy run must drain
  // rather than hang (goodput reports the shortfall).
  assert(it->second.pdus_left > 0);
  if (--it->second.pdus_left == 0) {
    FinishRequest(id);
  }
}

void ServeWorld::FinishRequest(std::uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  Pending& p = it->second;
  stats_.completed++;
  if (p.dropped > 0) {
    stats_.truncated++;
  }
  stats_.latencies.push_back(loop_.Now() - p.issue_at);
  ScheduleNotice(id, /*failed=*/false);
  pending_.erase(it);
  inflight_--;
  IssueFromQueue();
}

void ServeWorld::FailRequest(std::uint64_t id, Status st) {
  (void)st;
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  if (it->second.backoff.stalled) {
    stats_.stall_failures++;
  }
  stats_.failed++;
  ScheduleNotice(id, /*failed=*/true);
  pending_.erase(it);
  inflight_--;
  IssueFromQueue();
}

void ServeWorld::ScheduleNotice(std::uint64_t id, bool failed) {
  // The dealloc notice (or, for a dead flow, the kernel's failure notice)
  // rides back over the otherwise idle reverse channel: one cell's worth
  // of latency, and only then do the server's pins drop.
  loop_.ScheduleIn(server().machine.costs().WireTime(kCellPayloadBytes),
                   (failed ? std::string("abort-notice/")
                           : std::string("dealloc-notice/")) + std::to_string(id),
                   [this, id, failed] {
                     // kNotFound is fine: a serve that failed inside Pop
                     // already released its pins there.
                     if (failed) {
                       file_server_->AbortRequest(id);
                     } else {
                       file_server_->CompleteRequest(id);
                     }
                   });
}

void ServeWorld::IssueFromQueue() {
  while (!overflow_.empty() && inflight_ < cfg_.max_inflight) {
    const ServeRequestSpec spec = overflow_.front();
    overflow_.pop_front();
    Issue(spec);
  }
}

void ServeWorld::ParkRetry(std::uint64_t id, const std::string& label,
                           EventLoop::Handler retry) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  const auto delay = it->second.backoff.Park(loop_.Now());
  if (!delay.has_value()) {
    // No progress for the whole horizon: the watchdog gives up so the run
    // drains and the §3.3 invariants can be audited over what remains.
    FailRequest(id, Status::kExhausted);
    return;
  }
  stats_.parks++;
  loop_.ScheduleIn(*delay, label, std::move(retry));
}

}  // namespace fbufs
