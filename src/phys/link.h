// Physical links.
//
// A PhysLink is a full-duplex point-to-point link between two physical
// nodes: a pair of unidirectional channels, each modelling serialization
// time (bandwidth), a drop-tail output queue, propagation delay, random
// loss, and an up/down state.  Link state changes are observable — the
// VINI layer subscribes so virtual links can share fate with the
// physical components beneath them (Section 3.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "packet/packet.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace vini::phys {

using NodeId = int;

struct LinkConfig {
  double bandwidth_bps = 1e9;                       ///< Gig-E by default
  sim::Duration propagation = 0;                    ///< one-way delay
  std::size_t queue_bytes = 512 * 1024;             ///< drop-tail output queue
  double loss_rate = 0.0;                           ///< random per-packet loss
  double weight = 1.0;                              ///< underlay routing metric
};

/// Counters for one direction of a link.
struct ChannelStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t loss_drops = 0;
  std::uint64_t down_drops = 0;
};

/// One direction of a physical link.
class Channel {
 public:
  using DeliverFn = std::function<void(packet::PacketBox)>;

  /// `label` identifies this direction for observability ("Denver-
  /// KansasCity/ab"); when non-empty and an obs context is installed,
  /// the channel registers its counters and emits trace events under it.
  /// `tx_node` / `rx_node` attribute the channel's events to physical
  /// nodes (sim::EventQueue::internNodeTag) for the shard-readiness
  /// telemetry: the serialization event belongs to the transmitting
  /// node, the propagation/delivery event to the receiving node.
  /// Attribution is passive — runs are byte-identical without it.
  Channel(sim::EventQueue& queue, sim::Random& random, const LinkConfig& config,
          const bool& link_up, std::string label = {},
          sim::NodeTag tx_node = sim::kNoNode,
          sim::NodeTag rx_node = sim::kNoNode);

  /// Enqueue a packet for transmission; it is delivered to the receiver's
  /// handler after queueing + serialization + propagation, unless dropped
  /// (a drop frees the box).
  void transmit(packet::PacketBox p);

  /// The receiving node installs its delivery handler here.
  void setDeliverHandler(DeliverFn fn) { deliver_ = std::move(fn); }

  const ChannelStats& stats() const { return stats_; }
  std::size_t queuedBytes() const { return queued_bytes_; }
  const LinkConfig& config() const { return config_; }

  /// Replace the live configuration.  Takes effect for packets not yet
  /// serializing: frames already on the wire finish under the old rate.
  void setConfig(const LinkConfig& config) { config_ = config; }

 private:
  void startNextTransmission();

  // Span plumbing for traced packets (meta.trace_id != 0): the link hop
  // decomposes into queueing, serialization, and propagation spans, and
  // every channel drop site closes the packet's root span with a reason.
  std::uint32_t spanOpen(const packet::Packet& p, std::int16_t layer);
  void spanClose(std::uint32_t span_id);
  void spanRootDrop(const packet::Packet& p, const char* reason);

  sim::EventQueue& queue_;
  /// The network RNG, or (sharded queue) a per-channel fork of it: loss
  /// draws happen inside worker lanes, and a shared engine would make
  /// the draw sequence depend on lane interleaving.  Forking at
  /// construction (single-threaded, deterministic order) pins each
  /// channel's stream to the topology, not the thread count.
  sim::Random& random_;
  std::optional<sim::Random> lane_random_;
  sim::Random& rng() { return lane_random_ ? *lane_random_ : random_; }
  LinkConfig config_;
  const bool& link_up_;
  DeliverFn deliver_;
  /// The sender's box rides through the queue and both wire events
  /// (serialization, propagation) and is handed on to deliver_, so a
  /// link hop neither allocates nor copies the 144-byte Packet, and the
  /// event callbacks capture only a pointer — small enough for the event
  /// queue's inline storage.
  struct Queued {
    packet::PacketBox packet;
    std::uint32_t span = 0;  ///< queueing-span id (0 = untraced)
  };
  std::deque<Queued> tx_queue_;
  std::size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  ChannelStats stats_;

  /// Node attribution for scheduled wire events (kNoNode when the
  /// owning PhysNetwork did not supply endpoint names).
  sim::NodeTag tx_node_ = sim::kNoNode;
  sim::NodeTag rx_node_ = sim::kNoNode;

  // Observability handles, cached at construction (null when no obs
  // context was installed or the channel is unlabelled).
  std::string label_;
  std::int16_t trace_link_ = -1;
  std::int16_t span_link_ = -1;
  std::int16_t span_queue_ = -1;
  std::int16_t span_serialize_ = -1;
  std::int16_t span_propagation_ = -1;
  obs::Counter* m_tx_packets_ = nullptr;
  obs::Counter* m_tx_bytes_ = nullptr;
  obs::Counter* m_queue_drops_ = nullptr;
  obs::Counter* m_loss_drops_ = nullptr;
  obs::Counter* m_down_drops_ = nullptr;
  obs::Gauge* m_queued_bytes_ = nullptr;
};

/// A full-duplex physical link between nodes `a` and `b`.
class PhysLink {
 public:
  using StateListener = std::function<void(PhysLink&, bool up)>;

  /// `a_name` / `b_name`, when supplied, are the endpoint nodes' names;
  /// they are interned as NodeTags so each channel's wire events carry
  /// per-node attribution (see Channel).
  PhysLink(int id, std::string name, NodeId a, NodeId b,
           sim::EventQueue& queue, sim::Random& random, LinkConfig config,
           const std::string& a_name = {}, const std::string& b_name = {});

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  NodeId nodeA() const { return a_; }
  NodeId nodeB() const { return b_; }
  const LinkConfig& config() const { return ab_.config(); }

  /// True if `n` is one of the link's endpoints.
  bool attaches(NodeId n) const { return n == a_ || n == b_; }
  /// The endpoint opposite `n`.
  NodeId peerOf(NodeId n) const { return n == a_ ? b_ : a_; }

  /// The transmit channel out of node `n`.
  Channel& channelFrom(NodeId n) { return n == a_ ? ab_ : ba_; }
  const Channel& channelFrom(NodeId n) const { return n == a_ ? ab_ : ba_; }

  bool isUp() const { return up_; }
  /// Fail or restore the link; notifies subscribers on change.
  void setUp(bool up);

  // -- Runtime quality degradation (fault injection) -----------------------

  /// The construction-time configuration, kept for restoreConfig().
  const LinkConfig& baseConfig() const { return base_config_; }
  /// Replace the live configuration of both directions (degraded link:
  /// extra loss, inflated delay, reduced bandwidth).  The underlay
  /// routing weight is never changed — a degraded link still carries
  /// whatever the topology routes over it.
  void applyConfig(LinkConfig config);
  /// Return to the construction-time configuration.
  void restoreConfig();
  bool isDegraded() const { return degraded_; }

  /// Subscribe to up/down transitions (used by the VINI fate-sharing and
  /// upcall machinery).
  void subscribe(StateListener listener) {
    listeners_.push_back(std::move(listener));
  }

 private:
  int id_;
  std::string name_;
  NodeId a_;
  NodeId b_;
  bool up_ = true;
  bool degraded_ = false;
  LinkConfig base_config_;
  Channel ab_;
  Channel ba_;
  std::vector<StateListener> listeners_;
};

}  // namespace vini::phys
