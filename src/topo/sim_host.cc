#include "src/topo/sim_host.h"

#include <cassert>
#include <utility>

namespace fbufs {

namespace {

// Appends |d| unless it repeats the previous element (layers in the same
// domain collapse to one hop).
void AppendHop(std::vector<DomainId>* hops, DomainId d) {
  if (hops->empty() || hops->back() != d) {
    hops->push_back(d);
  }
}

std::uint32_t DomainCount(StackPlacement p) {
  switch (p) {
    case StackPlacement::kKernelOnly:
      return 1;
    case StackPlacement::kUserKernel:
      return 2;
    case StackPlacement::kUserNetserverKernel:
      return 3;
  }
  return 1;
}

MachineConfig Named(MachineConfig cfg, const std::string& name) {
  cfg.name = name;
  return cfg;
}

}  // namespace

SimHost::SimHost(const SimHostConfig& cfg, HostRole host_role,
                 std::uint32_t host_vci, std::uint16_t port,
                 const std::string& name, const RelayWiring* relay)
    : machine(Named(cfg.machine, name)),
      fsys(&machine),
      rpc(&machine),
      adapter(&machine.costs()),
      cpu(machine.cpu_lane(0)),
      vci(host_vci),
      role(host_role),
      config(cfg) {
  fsys.AttachRpc(&rpc);

  Domain* kernel = &machine.kernel();
  Domain* app = kernel;
  Domain* udp_dom = kernel;
  switch (config.placement) {
    case StackPlacement::kKernelOnly:
      break;
    case StackPlacement::kUserKernel:
      app = machine.CreateDomain("app");
      break;
    case StackPlacement::kUserNetserverKernel:
      app = machine.CreateDomain("app");
      udp_dom = machine.CreateDomain("netserver");
      break;
  }

  ProtocolStack::Config scfg;
  scfg.integrated = config.integrated;
  stack = std::make_unique<ProtocolStack>(&machine, &fsys, &rpc, scfg);
  stack->set_domain_count(DomainCount(config.placement));

  const bool is_sender = role == HostRole::kSender;

  // Data path: the domains a data fbuf visits on this host. A relay's data
  // enters like a receiver's (kernel upward) and then revisits the kernel on
  // the way back out.
  std::vector<DomainId> data_hops;
  if (is_sender) {
    AppendHop(&data_hops, app->id());
    AppendHop(&data_hops, udp_dom->id());
    AppendHop(&data_hops, kernel->id());
  } else {
    AppendHop(&data_hops, kernel->id());
    AppendHop(&data_hops, udp_dom->id());
    AppendHop(&data_hops, app->id());
    if (role == HostRole::kRelay) {
      AppendHop(&data_hops, udp_dom->id());
      AppendHop(&data_hops, kernel->id());
    }
  }
  // The sender's allocator is always cached (even in the Figure 6
  // configuration): |cached| selects the receive side only.
  const bool side_cached = is_sender || config.cached;
  PathId data_path = kNoPath;
  PathId udp_hdr_path = kNoPath;
  PathId ip_hdr_path = kNoPath;
  if (side_cached) {
    data_path = fsys.paths().Register(data_hops);
  }
  // Header fbufs are always path-cached: protocols know their own domain
  // sequence regardless of the adapter's demux ability.
  std::vector<DomainId> hdr_hops;
  AppendHop(&hdr_hops, udp_dom->id());
  AppendHop(&hdr_hops, kernel->id());
  udp_hdr_path = fsys.paths().Register(hdr_hops);
  ip_hdr_path = fsys.paths().Register({kernel->id()});

  udp = std::make_unique<UdpProtocol>(udp_dom, stack.get(), udp_hdr_path);
  ip = std::make_unique<IpProtocol>(kernel, stack.get(), ip_hdr_path, config.pdu_size);
  driver = std::make_unique<DriverProtocol>(kernel, stack.get(), &adapter, host_vci);

  switch (role) {
    case HostRole::kSender:
      source = std::make_unique<SourceProtocol>(app, stack.get(), data_path,
                                                config.volatile_fbufs);
      source->set_below(udp.get());
      udp->set_below(ip.get());
      udp->SetDefaultPorts(1000, port);
      ip->set_below(driver.get());
      WireTransmit(driver.get());
      break;

    case HostRole::kReceiver:
      sink = std::make_unique<SinkProtocol>(app, stack.get());
      driver->set_above(ip.get());
      ip->set_above(udp.get());
      udp->Bind(port, sink.get());
      if (config.cached) {
        // The adapter demuxes this VCI into pre-allocated per-path buffers;
        // without registration every PDU falls back to the uncached queue.
        adapter.RegisterVci(host_vci, data_path);
      }
      break;

    case HostRole::kRelay: {
      assert(relay != nullptr && "relay host needs RelayWiring");
      // Inbound: like a receiver, but the port is bound to the relay
      // protocol instead of a sink.
      relay_proto = std::make_unique<RelayProtocol>(app, stack.get());
      driver->set_above(ip.get());
      ip->set_above(udp.get());
      udp->Bind(port, relay_proto.get());
      if (config.cached) {
        adapter.RegisterVci(host_vci, data_path);
      }
      // Outbound: like a sender, rooted at the relay protocol, onto a
      // second board. The same data fbufs flow back down — only header
      // fbufs are allocated on this side.
      adapter_out = std::make_unique<OsirisAdapter>(&machine.costs(), name + "/out-");
      std::vector<DomainId> out_hdr_hops;
      AppendHop(&out_hdr_hops, udp_dom->id());
      AppendHop(&out_hdr_hops, kernel->id());
      const PathId udp_out_hdr = fsys.paths().Register(out_hdr_hops);
      const PathId ip_out_hdr = fsys.paths().Register({kernel->id()});
      udp_out = std::make_unique<UdpProtocol>(udp_dom, stack.get(), udp_out_hdr);
      ip_out = std::make_unique<IpProtocol>(kernel, stack.get(), ip_out_hdr,
                                            config.pdu_size);
      driver_out = std::make_unique<DriverProtocol>(kernel, stack.get(),
                                                    adapter_out.get(), relay->out_vci);
      relay_proto->set_below(udp_out.get());
      udp_out->set_below(ip_out.get());
      udp_out->SetDefaultPorts(1000, relay->out_port);
      ip_out->set_below(driver_out.get());
      WireTransmit(driver_out.get());
      break;
    }
  }
}

void SimHost::EnableRings(EventLoop* loop, const RingConfig& cfg) {
  assert(ring_hub == nullptr && "rings are enabled once per host");
  ring_hub = std::make_unique<RingHub>(&machine, &fsys, &rpc, loop, cfg,
                                       /*auto_create=*/true);
  stack->EnableRings(ring_hub.get());
  fsys.SetNoticeTransport(ring_hub.get());
}

void SimHost::WireTransmit(DriverProtocol* out_driver) {
  out_driver->set_on_transmit(
      [this](std::vector<std::uint8_t> payload, std::uint32_t out_vci) {
        (void)out_vci;
        staged.push_back(StagedPdu{std::move(payload), machine.clock().Now()});
      });
}

SinkProtocol* SimHost::AddFlowEndpoint(std::uint32_t flow_vci,
                                       std::uint16_t flow_port,
                                       std::size_t index) {
  Domain* kernel = &machine.kernel();
  Domain* app = config.placement == StackPlacement::kKernelOnly
                    ? kernel
                    : machine.CreateDomain("app-flow" + std::to_string(index));
  auto flow_sink = std::make_unique<SinkProtocol>(app, stack.get());
  SinkProtocol* raw = flow_sink.get();
  extra_sinks_.push_back(std::move(flow_sink));
  udp->Bind(flow_port, raw);
  if (config.cached) {
    std::vector<DomainId> data_hops;
    AppendHop(&data_hops, kernel->id());
    AppendHop(&data_hops, udp->domain()->id());
    AppendHop(&data_hops, app->id());
    const PathId data_path = fsys.paths().Register(data_hops);
    adapter.RegisterVci(flow_vci, data_path);
  }
  return raw;
}

}  // namespace fbufs
