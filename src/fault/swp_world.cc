#include "src/fault/swp_world.h"

namespace fbufs {

namespace {
MachineConfig MachineFor(const SwpWorldConfig& cfg) {
  MachineConfig m;
  m.phys_frames = cfg.phys_frames;
  return m;
}

// The shared backoff, parameterized by the protocol's own timescale: the
// first retry lands one RTO out (matching the retransmission timer), and the
// ramp caps early enough that the producer probes a recovering pool
// promptly.
FlowBackoff ProducerBackoff(const SwpWorldConfig& cfg) {
  FlowBackoff b;
  b.policy.initial = cfg.rto;
  b.policy.multiplier = 2;
  b.policy.cap = 8 * cfg.rto;
  b.stall_horizon = cfg.stall_horizon;
  return b;
}
}  // namespace

SwpWorld::SwpWorld(const SwpWorldConfig& cfg)
    : machine(MachineFor(cfg)),
      fsys(&machine),
      rpc(&machine),
      stack(&machine, &fsys, &rpc),
      sender_domain(machine.CreateDomain("sender")),
      receiver_domain(machine.CreateDomain("receiver")),
      tx_hdr(fsys.paths().Register({sender_domain->id(), receiver_domain->id()})),
      rx_hdr(fsys.paths().Register({receiver_domain->id(), sender_domain->id()})),
      data(fsys.paths().Register({sender_domain->id(), receiver_domain->id()})),
      sender(sender_domain, &stack, tx_hdr, kWindow),
      receiver(receiver_domain, &stack, rx_hdr, kWindow),
      fwd(sender_domain, &stack, kFwdSeed, cfg.fwd_loss),
      rev(receiver_domain, &stack, kRevSeed, cfg.rev_loss),
      sink(receiver_domain, &stack),
      producer_(&fsys, &loop, sender_domain, data, &sender, ProducerBackoff(cfg)) {
  fsys.AttachRpc(&rpc);
  stack.set_domain_count(2);
  sender.set_below(&fwd);
  fwd.set_peer_above(&receiver);
  receiver.set_below(&rev);
  rev.set_peer_above(&sender);
  receiver.set_above(&sink);
  sender.AttachTimer(&loop, cfg.rto);
  fsys.AttachEventLoop(&loop);
}

}  // namespace fbufs
