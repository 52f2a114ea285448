// UDP, over the message abstraction: real header build/parse and port
// demultiplexing. Per the paper's §4, UDP is "slightly modified to support
// messages larger than 64 KBytes": the length field is widened to 32 bits
// (the header grows from 8 to 12 bytes). The checksum covers the header
// only, as was common practice and as the paper's netserver discussion
// assumes, so UDP never reads a message's body.
#ifndef SRC_PROTO_UDP_H_
#define SRC_PROTO_UDP_H_

#include <cstdint>
#include <map>

#include "src/proto/protocol.h"

namespace fbufs {

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t length = 0;  // header + body (widened for > 64 KB messages)
  std::uint16_t checksum = 0;
  std::uint16_t zero = 0;
};
static_assert(sizeof(UdpHeader) == 12);

class UdpProtocol : public Protocol {
 public:
  static constexpr std::uint64_t kHeaderBytes = sizeof(UdpHeader);

  // |hdr_path| is the data path used to allocate header fbufs (kNoPath for
  // uncached headers).
  UdpProtocol(Domain* domain, ProtocolStack* stack, PathId hdr_path)
      : Protocol("udp", domain, stack), hdr_path_(hdr_path) {}

  // Routes messages arriving for |port| up into |client|.
  void Bind(std::uint16_t port, Protocol* client) { bindings_[port] = client; }

  // Ports used by Push (the Protocol-interface entry).
  void SetDefaultPorts(std::uint16_t src, std::uint16_t dst) {
    default_src_ = src;
    default_dst_ = dst;
  }

  Status Push(Message m) override { return Send(m, default_src_, default_dst_); }
  Status Pop(Message m) override;

  Status Send(const Message& m, std::uint16_t src_port, std::uint16_t dst_port);

  bool touches_body() const override { return false; }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  PathId hdr_path_;
  std::uint16_t default_src_ = 1;
  std::uint16_t default_dst_ = 2;
  std::map<std::uint16_t, Protocol*> bindings_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace fbufs

#endif  // SRC_PROTO_UDP_H_
