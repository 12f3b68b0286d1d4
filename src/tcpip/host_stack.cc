#include "tcpip/host_stack.h"

#include <algorithm>

namespace vini::tcpip {

// ---------------------------------------------------------------------------
// Devices

void UnderlayDevice::transmit(packet::PacketBox p) {
  stack_.transmitUnderlay(std::move(p));
}

void TunDevice::inject(packet::Packet p) { stack_.injectFromTun(std::move(p)); }

// ---------------------------------------------------------------------------
// UdpSocket

UdpSocket::UdpSocket(HostStack& stack, std::uint16_t port)
    : stack_(stack), port_(port) {}

UdpSocket::~UdpSocket() = default;

void UdpSocket::setBuffered(std::size_t buffer_bytes) {
  buffered_ = true;
  buffer_capacity_ =
      buffer_bytes > 0 ? buffer_bytes : stack_.config().default_socket_buffer;
}

std::optional<packet::Packet> UdpSocket::readPacket() {
  if (rx_queue_.empty()) return std::nullopt;
  packet::Packet p = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  rx_queued_bytes_ -= std::min(rx_queued_bytes_, p.ipPacketBytes());
  return p;
}

void UdpSocket::deliver(packet::Packet p) {
  if (buffered_) {
    const std::size_t bytes = p.ipPacketBytes();
    if (rx_queued_bytes_ + bytes > buffer_capacity_) {
      ++buffer_drops_;
      stack_.noteSocketBufferDrop(p);
      return;
    }
    rx_queued_bytes_ += bytes;
    rx_queue_.push_back(std::move(p));
    if (notify_) notify_(rx_queue_.back());
    return;
  }
  if (handler_) handler_(std::move(p));
}

packet::IpAddress UdpSocket::boundAddress() const {
  return bound_addr_.isZero() ? stack_.address() : bound_addr_;
}

void UdpSocket::sendTo(packet::IpAddress dst, std::uint16_t dport,
                       std::size_t payload_bytes, packet::PacketMeta meta) {
  packet::Packet p =
      packet::Packet::udp(boundAddress(), dst, port_, dport, payload_bytes);
  p.meta = meta;
  stack_.sendPacket(std::move(p));
}

void UdpSocket::sendEncapsulatedTo(packet::IpAddress dst, std::uint16_t dport,
                                   packet::PacketBox inner,
                                   std::size_t extra_bytes) {
  stack_.sendPacket(packet::Packet::encapsulateUdp(
      stack_.address(), dst, port_, dport, std::move(inner), extra_bytes));
}

void UdpSocket::sendAppTo(packet::IpAddress dst, std::uint16_t dport,
                          std::shared_ptr<const packet::AppPayload> payload) {
  packet::Packet p = packet::Packet::udp(stack_.address(), dst, port_, dport, 0);
  p.app = std::move(payload);
  if (auto* udp = p.udpHeader()) {
    udp->length = static_cast<std::uint16_t>(packet::UdpHeader::kWireBytes +
                                             p.app->sizeBytes());
  }
  stack_.sendPacket(std::move(p));
}

// ---------------------------------------------------------------------------
// HostStack

namespace {

obs::TraceRecord hostRecord(obs::TraceEvent ev, sim::Time t,
                            const packet::Packet& p, std::int16_t node) {
  obs::TraceRecord rec;
  rec.t = t;
  rec.event = ev;
  rec.node = node;
  rec.src = p.ip.src.value();
  rec.dst = p.ip.dst.value();
  rec.flow = p.meta.flow_id;
  rec.seq = p.meta.app_seq;
  rec.bytes = static_cast<std::uint32_t>(p.ipPacketBytes());
  return rec;
}

}  // namespace

HostStack::HostStack(phys::PhysNode& node, phys::PhysNetwork& net,
                     HostConfig config)
    : node_(node), net_(net), config_(config) {
  underlay_ = std::make_unique<UnderlayDevice>("eth0", node.address(), *this);
  local_addrs_.insert(node.address());
  // Default route: everything not otherwise routed exits the underlay NIC.
  rt_.addRoute(Route{packet::Prefix::defaultRoute(), underlay_.get(), {}, 100});
  node_.setRxStage(phys::RxStage{config_.rx_latency_mean, config_.nic_jitter,
                                 config_.rx_spike_probability,
                                 config_.rx_spike_min, config_.rx_spike_max});
  node_.setPacketHandler(
      [this](packet::PacketBox p, phys::PhysLink&, sim::Time arrived_at) {
        onWirePacket(std::move(p), arrived_at);
      });
  kernel_accounting_start_ = queue().now();
  // Unconditional (not obs-gated): node attribution is engine-level
  // bookkeeping for the shard-readiness telemetry, and passive either way.
  node_tag_ = queue().internNodeTag(node_.name());
  // Sharded queue: fork a per-stack RNG stream at construction (single-
  // threaded, deterministic order) so lane-side draws are independent of
  // how many worker threads the engine runs.
  if (queue().shardThreads() > 0) lane_random_.emplace(net_.random().fork());
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    obs::MetricsRegistry& m = ctx->metrics;
    const std::string& n = node_.name();
    m_rx_packets_ = &m.counter("tcpip.host", n, "rx_packets");
    m_delivered_ = &m.counter("tcpip.host", n, "delivered");
    m_forwarded_ = &m.counter("tcpip.host", n, "forwarded");
    m_dropped_no_route_ = &m.counter("tcpip.host", n, "dropped_no_route");
    m_dropped_ttl_ = &m.counter("tcpip.host", n, "dropped_ttl");
    m_dropped_no_listener_ = &m.counter("tcpip.host", n, "dropped_no_listener");
    m_socket_buffer_drops_ = &m.counter("tcpip.host", n, "socket_buffer_drops");
    m_nic_queue_drops_ = &m.counter("tcpip.host", n, "nic_queue_drops");
    trace_node_ = ctx->tracer.internNode(n);
    span_node_ = ctx->spans.intern(n);
    span_nic_rx_ = ctx->spans.intern("host.nic_rx");
    span_kernel_fwd_ = ctx->spans.intern("host.kernel_fwd");
    span_nic_tx_ = ctx->spans.intern("host.nic_tx");
  }
}

std::uint32_t HostStack::spanOpen(const packet::Packet& p, std::int16_t layer,
                                  sim::Time t) {
  if (p.meta.trace_id == 0) return 0;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    return ctx->spans.open(p.meta.trace_id, layer, t, span_node_, -1,
                           static_cast<std::uint32_t>(p.ipPacketBytes()));
  }
  return 0;
}

void HostStack::spanClose(std::uint32_t span_id) {
  if (span_id == 0) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) ctx->spans.close(span_id, queue().now());
}

void HostStack::spanRootDrop(const packet::Packet& p, const char* reason) {
  if (p.meta.trace_id == 0) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->spans.closeRoot(p.meta.trace_id, queue().now(),
                         obs::SpanOutcome::kDropped,
                         ctx->spans.intern(reason));
  }
}

void HostStack::noteSocketBufferDrop(const packet::Packet& p) {
  VINI_OBS_INC(m_socket_buffer_drops_);
  VINI_OBS_TRACE(hostRecord(obs::TraceEvent::kSocketDrop, queue().now(), p,
                            trace_node_));
  spanRootDrop(p, "socket_buffer_full");
}

HostStack::~HostStack() = default;

TunDevice& HostStack::createTunDevice(const std::string& name,
                                      packet::IpAddress address) {
  tun_devices_.push_back(std::make_unique<TunDevice>(name, address, *this));
  if (!address.isZero()) local_addrs_.insert(address);
  return *tun_devices_.back();
}

bool HostStack::removeTunDevice(const std::string& name) {
  for (auto it = tun_devices_.begin(); it != tun_devices_.end(); ++it) {
    if ((*it)->name() != name) continue;
    rt_.removeRoutesVia(it->get());
    const packet::IpAddress addr = (*it)->address();
    if (!addr.isZero()) local_addrs_.erase(addr);
    tun_devices_.erase(it);
    return true;
  }
  return false;
}

Device* HostStack::deviceByName(const std::string& name) {
  if (underlay_ && underlay_->name() == name) return underlay_.get();
  for (auto& d : tun_devices_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

bool HostStack::isLocalAddress(packet::IpAddress addr) const {
  return local_addrs_.contains(addr);
}

UdpSocket& HostStack::openUdp(std::uint16_t port) {
  if (port == 0) port = allocateEphemeralPort();
  auto [it, inserted] =
      udp_sockets_.try_emplace(port, std::make_unique<UdpSocket>(*this, port));
  return *it->second;
}

void HostStack::closeUdp(std::uint16_t port) { udp_sockets_.erase(port); }

UdpSocket* HostStack::udpSocket(std::uint16_t port) {
  auto it = udp_sockets_.find(port);
  return it == udp_sockets_.end() ? nullptr : it->second.get();
}

std::uint16_t HostStack::allocateEphemeralPort() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 32768 : next_ephemeral_ + 1;
    if (udp_sockets_.count(port) == 0) return port;
  }
  return 0;
}

std::uint16_t HostStack::allocateIcmpIdent() { return next_icmp_ident_++; }

void HostStack::sendIcmpEcho(packet::IpAddress dst, std::uint16_t ident,
                             std::uint16_t seq, std::size_t payload_bytes,
                             packet::PacketMeta meta, packet::IpAddress src) {
  packet::Packet p = packet::Packet::icmpEchoRequest(
      src.isZero() ? address() : src, dst, ident, seq, payload_bytes);
  p.meta = meta;
  sendPacket(std::move(p));
}

void HostStack::registerTcpConnection(const TcpKey& key,
                                      std::function<void(packet::Packet)> handler,
                                      std::shared_ptr<void> owner) {
  tcp_connections_[key] = TcpDemuxEntry{
      std::move(owner),
      std::make_shared<const std::function<void(packet::Packet)>>(
          std::move(handler))};
}

void HostStack::unregisterTcpConnection(const TcpKey& key) {
  tcp_connections_.erase(key);
}

void HostStack::registerTcpListener(std::uint16_t port,
                                    std::function<void(packet::Packet)> handler) {
  tcp_listeners_[port] = std::move(handler);
}

void HostStack::unregisterTcpListener(std::uint16_t port) {
  tcp_listeners_.erase(port);
}

void HostStack::onWirePacket(packet::PacketBox p, sim::Time arrived_at) {
  // The NIC receive latency was the channel's hold: the node's RxStage
  // scheduled this delivery, so the packet enters the kernel now.
  VINI_OBS_INC(m_rx_packets_);
  VINI_OBS_TRACE(hostRecord(obs::TraceEvent::kIngress, queue().now(), *p,
                            trace_node_));
  spanClose(spanOpen(*p, span_nic_rx_, arrived_at));
  if (rx_trace_) rx_trace_(*p);
  processPacket(std::move(p));
}

void HostStack::injectFromTun(packet::Packet p) {
  // User -> kernel injection: processed as if it arrived from a device,
  // with no NIC latency (it is a memory copy through /dev/net/tun).
  // Traffic for this host is delivered without ever being boxed.
  if (isLocalAddress(p.ip.dst)) {
    deliverLocal(std::move(p));
    return;
  }
  processPacket(std::make_unique<packet::Packet>(std::move(p)));
}

void HostStack::processPacket(packet::PacketBox p) {
  if (isLocalAddress(p->ip.dst)) {
    deliverLocal(std::move(*p));
    return;
  }
  if (!config_.ip_forward) {
    ++stats_.dropped_no_route;
    VINI_OBS_INC(m_dropped_no_route_);
    spanRootDrop(*p, "no_ip_forward");
    return;
  }
  forwardPacket(std::move(p));
}

void HostStack::setPortCapture(packet::IpProto proto, std::uint16_t port,
                               std::function<void(packet::Packet)> handler) {
  port_captures_[{static_cast<std::uint8_t>(proto), port}] = std::move(handler);
}

void HostStack::clearPortCapture(packet::IpProto proto, std::uint16_t port) {
  port_captures_.erase({static_cast<std::uint8_t>(proto), port});
}

void HostStack::deliverLocal(packet::Packet p) {
  ++stats_.delivered;
  VINI_OBS_INC(m_delivered_);
  VINI_OBS_TRACE(hostRecord(obs::TraceEvent::kDeliver, queue().now(), p,
                            trace_node_));
  if (p.meta.slice_id >= 0) {
    SliceTraffic& traffic = slice_traffic_[p.meta.slice_id];
    ++traffic.rx_packets;
    traffic.rx_bytes += p.ipPacketBytes();
  }
  if (!port_captures_.empty()) {
    std::uint16_t port = 0;
    if (const auto* udp = p.udpHeader()) {
      port = udp->dst_port;
    } else if (const auto* tcp = p.tcpHeader()) {
      port = tcp->dst_port;
    } else if (const auto* icmp = p.icmpHeader()) {
      port = icmp->ident;
    }
    auto it = port_captures_.find({static_cast<std::uint8_t>(p.ip.proto), port});
    if (it != port_captures_.end()) {
      it->second(std::move(p));
      return;
    }
  }
  if (const auto* icmp = p.icmpHeader()) {
    if (icmp->type == packet::IcmpHeader::kEchoRequest) {
      // Kernel echo reply, preserving measurement metadata for RTTs.
      packet::Packet reply = packet::Packet::icmpEchoReply(p);
      reply.meta = p.meta;
      sendPacket(std::move(reply));
    } else if (icmp->type == packet::IcmpHeader::kEchoReply) {
      auto it = icmp_handlers_.find(icmp->ident);
      if (it != icmp_handlers_.end()) {
        it->second(std::move(p));
      } else {
        spanRootDrop(p, "no_listener");
      }
    } else if (icmp->type == packet::IcmpHeader::kTimeExceeded ||
               icmp->type == packet::IcmpHeader::kDestUnreachable) {
      if (icmp_error_handler_) icmp_error_handler_(p);
    }
    return;
  }
  if (const auto* udp = p.udpHeader()) {
    auto it = udp_sockets_.find(udp->dst_port);
    if (it != udp_sockets_.end()) {
      it->second->deliver(std::move(p));
    } else {
      ++stats_.dropped_no_listener;
      VINI_OBS_INC(m_dropped_no_listener_);
      spanRootDrop(p, "no_listener");
      sendIcmpError(packet::IcmpHeader::kDestUnreachable,
                    packet::IcmpHeader::kCodePortUnreachable, p);
    }
    return;
  }
  if (const auto* tcp = p.tcpHeader()) {
    const TcpKey key{tcp->dst_port, p.ip.src.value(), tcp->src_port};
    if (auto it = tcp_connections_.find(key); it != tcp_connections_.end()) {
      // Pin both out of the map: the handler may unregister itself while
      // it runs, and the owner and the handler must outlive that erase.
      const auto owner = it->second.owner;
      const auto handler = it->second.handler;
      (*handler)(std::move(p));
      return;
    }
    if (auto it = tcp_listeners_.find(tcp->dst_port); it != tcp_listeners_.end()) {
      it->second(std::move(p));
      return;
    }
    ++stats_.dropped_no_listener;
    VINI_OBS_INC(m_dropped_no_listener_);
    spanRootDrop(p, "no_listener");
    return;
  }
  // Other protocols (e.g. raw OSPF over IP) have no local consumer at the
  // kernel level; the overlay carries its routing traffic inside UDP.
  ++stats_.dropped_no_listener;
  VINI_OBS_INC(m_dropped_no_listener_);
  spanRootDrop(p, "no_listener");
}

void HostStack::sendIcmpError(std::uint8_t type, std::uint8_t code,
                              const packet::Packet& original) {
  if (original.isIcmp()) return;  // never ICMP about ICMP
  // Token bucket: 100 errors/s, burst 100.
  const sim::Time now = queue().now();
  icmp_error_tokens_ = std::min(
      100.0, icmp_error_tokens_ +
                 100.0 * sim::toSeconds(now - icmp_error_refill_at_));
  icmp_error_refill_at_ = now;
  if (icmp_error_tokens_ < 1.0) return;
  icmp_error_tokens_ -= 1.0;
  // Report from the address the packet was addressed to if it is ours
  // (e.g. a tap address), else the node's primary address.
  const packet::IpAddress reporter =
      isLocalAddress(original.ip.dst) ? original.ip.dst : address();
  sendPacket(packet::Packet::icmpError(reporter, type, code, original));
}

void HostStack::forwardPacket(packet::PacketBox p) {
  if (p->ip.ttl <= 1) {
    ++stats_.dropped_ttl;
    VINI_OBS_INC(m_dropped_ttl_);
    spanRootDrop(*p, "ttl_expired");
    sendIcmpError(packet::IcmpHeader::kTimeExceeded,
                  packet::IcmpHeader::kCodeTtlExpired, *p);
    return;
  }
  p->ip.ttl -= 1;
  ++stats_.forwarded;
  VINI_OBS_INC(m_forwarded_);

  // Kernel forwarding is serial work in the hot path: model a busy-until
  // so a saturated forwarder becomes the bottleneck, and account the CPU.
  const auto cost = config_.forward_fixed_cost +
                    static_cast<sim::Duration>(config_.forward_cost_per_byte_ns *
                                               static_cast<double>(p->ipPacketBytes()));
  const sim::Time now = queue().now();
  const sim::Time start = std::max(now, kernel_busy_until_);
  kernel_busy_until_ = start + cost;
  kernel_cpu_ += cost;
  const std::uint32_t fwd_span = spanOpen(*p, span_kernel_fwd_, now);
  queue().scheduleAfter(kernel_busy_until_ - now, "tcpip.host", node_tag_,
                        [this, p = std::move(p), fwd_span]() mutable {
                          spanClose(fwd_span);
                          routeAndTransmit(std::move(p));
                        });
}

void HostStack::sendPacket(packet::Packet p) {
  if (p.meta.app_send_time < 0) p.meta.app_send_time = queue().now();
  auto boxed = std::make_unique<packet::Packet>(std::move(p));
  if (isLocalAddress(boxed->ip.dst)) {
    // Loopback delivery.
    queue().scheduleAfter(1 * sim::kMicrosecond, "tcpip.host", node_tag_,
                          [this, p = std::move(boxed)]() mutable {
                            deliverLocal(std::move(*p));
                          });
    return;
  }
  routeAndTransmit(std::move(boxed));
}

void HostStack::routeAndTransmit(packet::PacketBox p) {
  const Route* route = rt_.lookup(p->ip.dst);
  if (!route || !route->device) {
    ++stats_.dropped_no_route;
    VINI_OBS_INC(m_dropped_no_route_);
    spanRootDrop(*p, "no_route");
    return;
  }
  VINI_OBS_TRACE(hostRecord(obs::TraceEvent::kForwardDecision, queue().now(),
                            *p, trace_node_));
  if (tx_trace_) tx_trace_(*p);
  route->device->transmit(std::move(p));
}

void HostStack::transmitUnderlay(packet::PacketBox p) {
  phys::PhysLink* link = net_.nextLinkFor(node_.id(), p->ip.dst);
  if (!link) {
    ++stats_.dropped_no_route;
    VINI_OBS_INC(m_dropped_no_route_);
    spanRootDrop(*p, "no_route");
    return;
  }
  if (p->meta.slice_id >= 0) {
    SliceTraffic& traffic = slice_traffic_[p->meta.slice_id];
    ++traffic.tx_packets;
    traffic.tx_bytes += p->ipPacketBytes();
  }
  const auto link_id = static_cast<std::size_t>(link->id());
  if (link_id >= nic_state_.size()) nic_state_.resize(link_id + 1);
  NicState& nic = nic_state_[link_id];
  // Bounded transmit ring: a saturated sender used to pre-schedule one
  // far-future wire event per packet (~414k pending events at peak on a
  // saturated mesh); now overflow is a counted drop, like a real driver.
  if (nic.queue.size() >= config_.nic_queue_packets) {
    ++stats_.dropped_nic_queue;
    VINI_OBS_INC(m_nic_queue_drops_);
    spanRootDrop(*p, "nic_queue_full");
    return;
  }
  // Serialize through the access NIC (this is what limits a PlanetLab
  // node to ~100 Mb/s regardless of the backbone capacity), then the
  // transmit-path latency, then onto the wire.  Integer ceiling for the
  // same reason as Channel: the float product truncated up to 1 ns per
  // frame, letting back-to-back frames creep together.  The wire time is
  // still decided here, at enqueue — byte-identical to the old per-packet
  // pre-scheduling — but only the ring head holds a pending event;
  // nicComplete() chains the rest.
  const sim::Duration serialization =
      sim::serializationDelay(p->wireBytes(), config_.nic_bps);
  const sim::Time now = queue().now();
  const bool back_to_back = nic.busy_until > now;
  const sim::Time start = std::max(now, nic.busy_until);
  nic.busy_until = start + serialization;
  // Jitter applies when the NIC ramps up from idle; a back-to-back burst
  // stays perfectly paced at the serialization rate (re-sampling jitter
  // per packet would ratchet the spacing up and silently tax throughput).
  const sim::Duration latency =
      back_to_back ? config_.tx_latency_mean
                   : phys::sampleNicLatency(rng(), config_.tx_latency_mean,
                                            config_.nic_jitter);
  sim::Time wire_at = nic.busy_until + latency;
  if (wire_at < nic.last_wire) wire_at = nic.last_wire;  // keep FIFO
  nic.last_wire = wire_at;
  const std::uint32_t tx_span = spanOpen(*p, span_nic_tx_, now);
  const bool was_idle = nic.queue.empty();
  nic.queue.push_back(NicTx{std::move(p), link, tx_span, wire_at});
  if (was_idle) {
    queue().schedule(wire_at, "tcpip.host", node_tag_,
                     [this, id = link->id()]() { nicComplete(id); });
  }
}

void HostStack::nicComplete(int link_id) {
  NicState& nic = nic_state_[static_cast<std::size_t>(link_id)];
  if (nic.queue.empty()) return;  // defensive: ring was torn down
  NicTx tx = std::move(nic.queue.front());
  nic.queue.pop_front();
  spanClose(tx.span);
  tx.link->channelFrom(node_.id()).transmit(std::move(tx.packet));
  if (!nic.queue.empty()) {
    queue().schedule(nic.queue.front().wire_at, "tcpip.host", node_tag_,
                     [this, link_id]() { nicComplete(link_id); });
  }
}

void HostStack::resetKernelAccounting() {
  kernel_cpu_ = 0;
  kernel_accounting_start_ = queue().now();
}

double HostStack::kernelUtilization() const {
  const sim::Duration elapsed = net_.queue().now() - kernel_accounting_start_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(kernel_cpu_) / static_cast<double>(elapsed);
}

}  // namespace vini::tcpip
