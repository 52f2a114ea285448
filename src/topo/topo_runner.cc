#include "src/topo/topo_runner.h"

#include <algorithm>
#include <cassert>

namespace fbufs {

std::size_t TopologyRunner::AddFlow(std::vector<Leg> legs, SinkProtocol* sink,
                                    std::uint32_t window) {
  assert(!legs.empty());
  flows_.push_back(Flow{std::move(legs), sink, window});
  return flows_.size() - 1;
}

void TopologyRunner::ScheduleSenderStep(std::size_t flow) {
  FlowRun& run = runs_[flow];
  if (step_pending_[flow] || run.failed || run.next >= run.total) {
    return;
  }
  step_pending_[flow] = true;
  // The whole step runs on the flow's send lane (lane 0 on 1-CPU hosts).
  SimHost& tx = TxHost(flow);
  ScheduleOn(*loop_, tx.machine, run.tx_cpu,
             tx.machine.cpu_clock(run.tx_cpu).Now(),
             "send/" + std::to_string(flow) + "/" + std::to_string(run.next),
             [this, flow] {
               step_pending_[flow] = false;
               SenderStep(flow);
             });
}

void TopologyRunner::SenderStep(std::size_t flow) {
  FlowRun& run = runs_[flow];
  if (run.failed || run.next >= run.total) {
    return;
  }
  const std::uint32_t window = flows_[flow].window;
  SimHost& tx = TxHost(flow);
  SimClock& tx_clock = tx.machine.cpu_clock(run.tx_cpu);
  const std::uint64_t m = run.next;

  // Sliding-window flow control: do not run more than |window| messages
  // ahead of the receiver's acknowledgements. If the ack is still in
  // flight, stay quiescent; its arrival reschedules this step.
  if (window > 0 && m >= window && !run.acked[m - window]) {
    return;
  }

  if (m == run.traffic.warmup) {
    // Measurement starts here: pipeline full, fbuf caches warm.
    run.t0_tx = tx_clock.Now();
    run.tx_busy = 0;
  }
  if (window > 0 && m >= window) {
    // A window credit inside the step, not an event: wait for the slot's ack.
    tx_clock.AdvanceToAtLeast(run.ack_time[m - window]);
  }

  const SimTime tx_before = tx_clock.Now();
  if (!Ok(tx.source->SendOne(run.traffic.bytes))) {
    run.failed = true;
    return;
  }
  const SimTime tx_after = tx_clock.Now();
  tx.machine.cpu_lane(run.tx_cpu).RecordBusy(tx_before, tx_after);
  run.tx_busy += tx_after - tx_before;
  run.tx_end = tx_after;
  run.next++;

  // The send staged PDUs with the adapter (plus anything staged by hand
  // before the run, drained FIFO and attributed to this message). Pipe each
  // through the first leg of the route and schedule its arrival.
  run.pdus_left[m] = tx.staged.size();
  if (tx.staged.empty()) {
    // Nothing crossed the wire (degenerate send): acknowledge immediately
    // so the window never deadlocks.
    run.completed++;
    if (m + 1 == run.traffic.warmup) {
      run.t0_rx = RxHost(flow).machine.cpu_clock(run.rx_cpu).Now();
      run.rx_busy = 0;
    }
    run.ack_time[m] = tx_clock.Now();
    run.acked[m] = true;
  } else {
    while (!tx.staged.empty()) {
      SimHost::StagedPdu pdu = std::move(tx.staged.front());
      tx.staged.pop_front();
      RunLeg(flow, 0, m, std::move(pdu));
    }
  }
  ScheduleSenderStep(flow);
}

void TopologyRunner::RunLeg(std::size_t flow, std::size_t leg_i,
                            std::uint64_t msg, SimHost::StagedPdu pdu) {
  const std::vector<Leg>& legs = flows_[flow].legs;
  const Topology::Outcome out =
      topo_->Carry(legs[leg_i], pdu.payload.size(), pdu.ready);
  if (out.dropped) {
    PduDropped(flow, msg);
    return;
  }
  const SimTime rx_dma_done = out.done;
  const std::string id = std::to_string(flow) + "/" + std::to_string(msg);
  if (leg_i + 1 < legs.size()) {
    // RSS: a multicore relay services this leg's VCI on a fixed lane.
    SimHost& relay = *topo_->host(legs[leg_i].rx);
    const std::uint32_t relay_cpu =
        RssSteer(legs[leg_i].vci, relay.machine.num_cpus());
    ScheduleOn(*loop_, relay.machine, relay_cpu, rx_dma_done, "relay/" + id,
               [this, flow, leg_i, msg, payload = std::move(pdu.payload)] {
                 RelayEvent(flow, leg_i, msg, payload);
               });
    return;
  }
  SimHost& rx = RxHost(flow);
  if (rx.machine.num_cpus() > 1) {
    // A plain event: the PDU queues on the flow's RSS lane behind other
    // flows sharing it, and that dispatch queue owns arrival there (and
    // books the lane's busy time). Its start = max(ready, lane clock) would
    // start earlier-ready queued items late if this event advanced the lane
    // first.
    assert(rx.dispatcher != nullptr && "multicore receiver without a dispatcher");
    loop_->ScheduleAtLeast(
        rx_dma_done, "deliver/" + id,
        [this, &rx, flow, msg, id, payload = std::move(pdu.payload),
         rx_dma_done]() mutable {
          if (runs_[flow].failed) {
            return;
          }
          rx.dispatcher->RunOnCpu(
              runs_[flow].rx_cpu, rx_dma_done, "deliver/" + id,
              [this, flow, msg, payload = std::move(payload)] {
                if (!runs_[flow].failed) {
                  Deliver(flow, msg, payload, nullptr);  // active lane = rx_cpu
                }
              });
        });
    return;
  }
  ScheduleOn(*loop_, rx.machine, runs_[flow].rx_cpu, rx_dma_done,
             "deliver/" + id,
             [this, &rx, flow, msg, payload = std::move(pdu.payload)] {
               if (!runs_[flow].failed) {
                 Deliver(flow, msg, payload, &rx.cpu);
               }
             });
}

void TopologyRunner::Deliver(std::size_t flow, std::uint64_t msg,
                             const std::vector<std::uint8_t>& payload,
                             Resource* cpu) {
  FlowRun& run = runs_[flow];
  SimHost& rx = RxHost(flow);
  SimClock& clock = rx.machine.clock();
  const SimTime before = clock.Now();
  if (!Ok(rx.driver->DeliverPdu(payload, flows_[flow].legs.back().vci,
                                rx.config.volatile_fbufs))) {
    run.failed = true;
    return;
  }
  const SimTime after = clock.Now();
  if (cpu != nullptr) {
    cpu->RecordBusy(before, after);
  }
  run.rx_busy += after - before;
  run.rx_end = after;
  assert(run.pdus_left[msg] > 0);
  if (--run.pdus_left[msg] == 0) {
    CompleteMessage(flow, msg);
  }
}

void TopologyRunner::RelayEvent(std::size_t flow, std::size_t leg_i,
                                std::uint64_t msg,
                                const std::vector<std::uint8_t>& payload) {
  FlowRun& run = runs_[flow];
  if (run.failed) {
    return;
  }
  const Leg& leg = flows_[flow].legs[leg_i];
  SimHost& relay = *topo_->host(leg.rx);
  // The leg's RSS lane, which RunLeg woke through ScheduleOn.
  CpuLane& lane = relay.machine.cpu_lane(relay.machine.active_cpu());
  const SimTime before = lane.clock().Now();
  // Into fbufs, up to the relay protocol, and straight back down onto the
  // second adapter — the forwarded PDUs land in relay.staged.
  const Status st =
      relay.driver->DeliverPdu(payload, leg.vci, relay.config.volatile_fbufs);
  if (!Ok(st)) {
    run.failed = true;
    return;
  }
  lane.RecordBusy(before, lane.clock().Now());

  // This leg's PDU is consumed; whatever the out-driver staged continues on
  // the next leg under the same message. The consumed PDU is decremented
  // only after the new ones are counted, so the tally can't hit zero while
  // forwarded PDUs are still in flight.
  run.pdus_left[msg] += relay.staged.size();
  while (!relay.staged.empty()) {
    SimHost::StagedPdu pdu = std::move(relay.staged.front());
    relay.staged.pop_front();
    RunLeg(flow, leg_i + 1, msg, std::move(pdu));
  }
  assert(run.pdus_left[msg] > 0);
  if (--run.pdus_left[msg] == 0) {
    CompleteMessage(flow, msg);
  }
}

void TopologyRunner::PduDropped(std::size_t flow, std::uint64_t msg) {
  FlowRun& run = runs_[flow];
  run.dropped++;
  // The dropped PDU still completes the message's flow-control accounting:
  // the window is a credit scheme, not a reliability protocol, and a lossy
  // run must drain rather than hang (goodput reports the shortfall).
  assert(run.pdus_left[msg] > 0);
  if (--run.pdus_left[msg] == 0) {
    CompleteMessage(flow, msg);
  }
}

void TopologyRunner::CompleteMessage(std::size_t flow, std::uint64_t msg) {
  FlowRun& run = runs_[flow];
  SimHost& rx = RxHost(flow);
  SimClock& rx_clock = rx.machine.cpu_clock(run.rx_cpu);
  if (msg + 1 == run.traffic.warmup) {
    // The last warmup message is fully delivered: the receiver's
    // measurement window starts now.
    run.t0_rx = rx_clock.Now();
    run.rx_busy = 0;
  }
  // The acknowledgement rides back over the (otherwise idle) reverse
  // channel: one cell's worth of latency.
  const SimTime ack_t =
      rx_clock.Now() + rx.machine.costs().WireTime(kCellPayloadBytes);
  run.completed++;
  loop_->ScheduleAtLeast(
      ack_t, "ack/" + std::to_string(flow) + "/" + std::to_string(msg),
      [this, flow, msg, ack_t] {
        FlowRun& r = runs_[flow];
        r.ack_time[msg] = ack_t;
        r.acked[msg] = true;
        ScheduleSenderStep(flow);
      });
}

MultiResult TopologyRunner::RunFlows(const std::vector<FlowTraffic>& traffic) {
  MultiResult mr;
  mr.flows.resize(flows_.size());

  runs_.assign(flows_.size(), FlowRun{});
  step_pending_.assign(flows_.size(), false);

  // Multicore hosts get an evented dispatcher: receive processing queues on
  // its RSS lane. Crossings stay synchronous on the lane that runs them.
  // Single-CPU hosts keep the synchronous path — no dispatcher, no extra
  // events, byte-identical schedules.
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    SimHost* h = topo_->is_switch(n) ? nullptr : topo_->host(n);
    if (h != nullptr && h->machine.num_cpus() > 1 && h->dispatcher == nullptr) {
      h->dispatcher = std::make_unique<Dispatcher>(&h->machine, loop_);
    }
  }
  // Resets every CPU lane of |h| at its own clock (multicore lanes run on
  // independent timelines; with one lane this is the historical reset).
  auto reset_cpus = [](SimHost* h) {
    for (std::uint32_t c = 0; c < h->machine.num_cpus(); ++c) {
      CpuLane& lane = h->machine.cpu_lane(c);
      lane.ResetAccounting(lane.clock().Now());
    }
  };

  // Restart resource accounting: utilization is reported over this run
  // (warmup included), not the topology's lifetime.
  SimTime run_start = 0;
  bool run_start_set = false;
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    if (topo_->is_switch(n)) {
      SwitchNode* sw = topo_->switch_at(n);
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        Resource& r = sw->port_resource(p);
        r.ResetAccounting(r.busy_until());
      }
      continue;
    }
    SimHost* h = topo_->host(n);
    if (h == nullptr) {
      continue;
    }
    switch (h->role) {
      case HostRole::kReceiver: {
        const SimTime now = h->machine.clock().Now();
        if (!run_start_set || now < run_start) {
          run_start = now;
          run_start_set = true;
        }
        reset_cpus(h);
        h->adapter.rx_dma().ResetAccounting(h->adapter.rx_dma().busy_until());
        break;
      }
      case HostRole::kRelay:
        reset_cpus(h);
        h->adapter.rx_dma().ResetAccounting(h->adapter.rx_dma().busy_until());
        h->adapter_out->tx_dma().ResetAccounting(
            h->adapter_out->tx_dma().busy_until());
        break;
      case HostRole::kSender:
        break;  // reset per flow below
    }
  }
  for (LinkId l = 0; l < topo_->link_count(); ++l) {
    Resource& w = topo_->link(l).wire();
    w.ResetAccounting(w.busy_until());
  }

  bool any = false;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowRun& run = runs_[i];
    if (i < traffic.size()) {
      run.traffic = traffic[i];
    }
    run.total = run.traffic.warmup + run.traffic.messages;
    SimHost& tx = TxHost(i);
    SimHost& rxh = RxHost(i);
    // RSS steering: the flow's first-leg VCI picks its send lane, the last
    // leg's VCI its receive lane (always lane 0 on single-CPU machines).
    run.tx_cpu = RssSteer(flows_[i].legs.front().vci, tx.machine.num_cpus());
    run.rx_cpu = RssSteer(flows_[i].legs.back().vci, rxh.machine.num_cpus());
    reset_cpus(&tx);
    tx.out_adapter().tx_dma().ResetAccounting(
        tx.out_adapter().tx_dma().busy_until());
    run.t0_tx = tx.machine.cpu_clock(run.tx_cpu).Now();
    run.t0_rx = rxh.machine.cpu_clock(run.rx_cpu).Now();
    run.tx_end = run.t0_tx;
    run.rx_end = run.t0_rx;
    run.sink_bytes_start = flows_[i].sink->bytes_received();
    if (run.total == 0) {
      continue;
    }
    run.ack_time.assign(run.total, 0);
    run.acked.assign(run.total, false);
    run.pdus_left.assign(run.total, 0);
    if (!run_start_set || run.t0_tx < run_start) {
      run_start = run_start_set ? std::min(run_start, run.t0_tx) : run.t0_tx;
      run_start_set = true;
    }
    any = true;
    ScheduleSenderStep(i);
  }

  if (any) {
    loop_->Run();
  }

  SimTime global_end = run_start;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    FlowRun& run = runs_[i];
    FlowResult& fr = mr.flows[i];
    fr.messages = run.traffic.messages;
    fr.bytes = run.traffic.messages * run.traffic.bytes;
    fr.pdus_dropped = run.dropped;
    fr.failed = run.failed;
    fr.completed_messages = run.completed;
    fr.stalled = !run.failed && run.total > 0 && run.completed < run.total;
    mr.failed = mr.failed || run.failed;
    if (run.total == 0 || run.failed) {
      continue;
    }
    const SimTime tx_elapsed = run.tx_end - run.t0_tx;
    const SimTime rx_elapsed = run.rx_end > run.t0_rx ? run.rx_end - run.t0_rx : 0;
    SimTime wire_tail = 0;
    for (const Leg& leg : flows_[i].legs) {
      for (const Hop& hop : leg.hops) {
        const SimTime bu = topo_->link(hop.link).busy_until();
        if (bu > run.t0_tx) {
          wire_tail = std::max(wire_tail, bu - run.t0_tx);
        }
      }
    }
    fr.elapsed_ns = std::max({tx_elapsed, rx_elapsed, wire_tail});
    if (fr.elapsed_ns > 0) {
      fr.throughput_mbps = static_cast<double>(fr.bytes) * 8.0 * 1000.0 /
                           static_cast<double>(fr.elapsed_ns);
      fr.sender_cpu_load = static_cast<double>(run.tx_busy) /
                           static_cast<double>(fr.elapsed_ns);
    }
    // Goodput: bytes that actually reached the sink, warmup excluded (loss
    // may eat into warmup; the shortfall is attributed to the measured part
    // only when warmup was fully delivered).
    const std::uint64_t delivered_total =
        flows_[i].sink->bytes_received() - run.sink_bytes_start;
    const std::uint64_t warmup_bytes = run.traffic.warmup * run.traffic.bytes;
    fr.delivered_bytes =
        delivered_total > warmup_bytes ? delivered_total - warmup_bytes : 0;
    if (fr.elapsed_ns > 0) {
      fr.goodput_mbps = static_cast<double>(fr.delivered_bytes) * 8.0 * 1000.0 /
                        static_cast<double>(fr.elapsed_ns);
    }
    global_end = std::max({global_end, run.tx_end, run.rx_end});
    mr.elapsed_ns = std::max(mr.elapsed_ns, fr.elapsed_ns);
  }
  for (LinkId l = 0; l < topo_->link_count(); ++l) {
    global_end = std::max(global_end, topo_->link(l).busy_until());
  }
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    if (topo_->is_switch(n)) {
      SwitchNode* sw = topo_->switch_at(n);
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        global_end = std::max(global_end, sw->port_resource(p).busy_until());
      }
      continue;
    }
    SimHost* h = topo_->host(n);
    if (h == nullptr) {
      continue;
    }
    global_end = std::max({global_end, h->adapter.tx_dma().busy_until(),
                           h->adapter.rx_dma().busy_until()});
    if (h->adapter_out != nullptr) {
      global_end = std::max({global_end, h->adapter_out->tx_dma().busy_until(),
                             h->adapter_out->rx_dma().busy_until()});
    }
  }

  std::uint64_t total_bytes = 0;
  SimTime total_rx_busy = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    total_bytes += mr.flows[i].bytes;
    total_rx_busy += runs_[i].rx_busy;
  }
  // Legacy single-flow semantics: the receiver's load over the same window
  // the flow's throughput was computed over. With several flows the window
  // is the longest flow's.
  if (mr.elapsed_ns > 0) {
    mr.receiver_cpu_load = static_cast<double>(total_rx_busy) /
                           static_cast<double>(mr.elapsed_ns);
  }
  const SimTime window = global_end > run_start ? global_end - run_start : 0;
  if (window > 0) {
    mr.aggregate_mbps = static_cast<double>(total_bytes) * 8.0 * 1000.0 /
                        static_cast<double>(window);
  }

  // Every row divides by the one run window, not by each resource's own
  // accounting window, so rows of one run compare directly.
  auto report = [&](const Resource& r) {
    ResourceUse use;
    use.name = r.name();
    use.busy_ns = r.busy_ns();
    if (window > 0) {
      // A saturated resource's last occupancy can overhang the window close
      // (Acquire books the whole occupancy up front); trim it and clamp so a
      // bottleneck reads as ~1.0, never more.
      SimTime busy = r.busy_ns();
      if (r.busy_until() > global_end) {
        const SimTime overhang = r.busy_until() - global_end;
        busy = overhang >= busy ? 0 : busy - overhang;
      }
      const double u = static_cast<double>(busy) / static_cast<double>(window);
      use.utilization = u > 1.0 ? 1.0 : u;
    }
    mr.resources.push_back(std::move(use));
  };
  // A multicore host reports every CPU lane (each is its own resource row);
  // single-CPU hosts report the historical "cpu/<host>" row.
  auto report_cpus = [&](SimHost* h) {
    for (std::uint32_t c = 0; c < h->machine.num_cpus(); ++c) {
      report(h->machine.cpu_lane(c));
    }
  };
  // Report order: sender-side resources per flow, then the fabric (switch
  // ports, link wires), then relay and receiver hosts. The one-link testbed
  // reduces to the historical order: sender cpu/tx-dma, wire, rx-dma, cpu.
  std::vector<bool> tx_reported(topo_->node_count(), false);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const NodeId n = flows_[i].legs.front().tx;
    if (tx_reported[n]) {
      continue;
    }
    tx_reported[n] = true;
    SimHost* tx = topo_->host(n);
    report_cpus(tx);
    report(tx->out_adapter().tx_dma());
  }
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    if (topo_->is_switch(n)) {
      SwitchNode* sw = topo_->switch_at(n);
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        report(sw->port_resource(p));
      }
    }
  }
  for (LinkId l = 0; l < topo_->link_count(); ++l) {
    report(topo_->link(l).wire());
  }
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    SimHost* h = topo_->is_switch(n) ? nullptr : topo_->host(n);
    if (h != nullptr && h->role == HostRole::kRelay) {
      report_cpus(h);
      report(h->adapter.rx_dma());
      report(h->adapter_out->tx_dma());
    }
  }
  for (NodeId n = 0; n < topo_->node_count(); ++n) {
    SimHost* h = topo_->is_switch(n) ? nullptr : topo_->host(n);
    if (h != nullptr && h->role == HostRole::kReceiver) {
      report(h->adapter.rx_dma());
      report_cpus(h);
    }
  }
  return mr;
}

}  // namespace fbufs
