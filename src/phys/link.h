// Physical links.
//
// A PhysLink is a full-duplex point-to-point link between two physical
// nodes: a pair of unidirectional channels, each modelling serialization
// time (bandwidth), a drop-tail output queue, propagation delay, random
// loss, and an up/down state.  Link state changes are observable — the
// VINI layer subscribes so virtual links can share fate with the
// physical components beneath them (Section 3.1).
//
// A FIFO wire knows a frame's whole schedule when the frame starts
// serializing, so a channel spends one engine event per frame: its
// delivery to the receiver.  When the receiving node has a NIC receive
// stage (RxStage), the channel also draws the frame's receive latency
// then, and the one event fires when the receiving kernel takes the
// frame.  The link's fate checks at the end of serialization and at
// arrival are settled by that event from the link's log of recent
// up/down transitions (DESIGN §13).
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

/// The receiving NIC of a node: DMA + interrupt latency per frame,
/// pipelined (a pure delay), fixed for the node's lifetime.  The host
/// stack installs it on its PhysNode (PhysNode::setRxStage); a channel
/// into the node applies it to every frame it delivers.  A zero mean
/// hands frames on at their arrival.
struct RxStage {
  sim::Duration latency_mean = 0;
  /// Relative jitter (stddev / mean) of the latency.
  double jitter = 0.0;
  /// Per-frame probability of an extra uniform(spike_min, spike_max)
  /// delay (softirq backlog on a busy production host).
  double spike_probability = 0.0;
  sim::Duration spike_min = 0;
  sim::Duration spike_max = 0;
};

/// One NIC latency: normal(mean, mean * jitter) clamped to
/// [0.2, 3] * mean; 0 for a non-positive mean.  Both NIC directions
/// (the host's transmit ring and a node's RxStage) draw through it.
sim::Duration sampleNicLatency(sim::Random& random, sim::Duration mean,
                               double jitter);

/// A link's up/down state as its channels read it: the current state
/// and the times of the transitions frames still in flight may need,
/// oldest first.  PhysLink owns and writes it (setUp(), serial under the
/// sharded engine); the channels' events only read it.
struct LinkState {
  bool up = true;
  std::vector<sim::Time> transitions;

  /// Whether the link was up at `t`, after any transitions at `t`.
  bool upAt(sim::Time t) const;
};

/// One direction of a physical link.
class Channel {
 public:
  /// Takes over the box; `arrived_at` is when the frame's last bit
  /// reached the receiver, at or before now (the receive hold between
  /// them is the RxStage's).
  using DeliverFn =
      std::function<void(packet::PacketBox, sim::Time arrived_at)>;

  /// `label` identifies this direction for observability ("Denver-
  /// KansasCity/ab"); when non-empty and an obs context is installed,
  /// the channel registers its counters and emits trace events under it.
  /// `tx_node` / `rx_node` attribute the channel's events to physical
  /// nodes (sim::EventQueue::internNodeTag) for the shard-readiness
  /// telemetry: the wire-free event belongs to the transmitting node,
  /// the arrival event to the receiving node.  Attribution is passive —
  /// runs are byte-identical without it.  `link` is the owning link's
  /// state, read at transmit and at arrival.
  Channel(sim::EventQueue& queue, sim::Random& random, const LinkConfig& config,
          const LinkState& link, std::string label = {},
          sim::NodeTag tx_node = sim::kNoNode,
          sim::NodeTag rx_node = sim::kNoNode);

  /// Enqueue a packet for transmission; it is delivered to the receiver's
  /// handler after queueing + serialization + propagation + the receive
  /// stage's hold, unless dropped (a drop frees the box).
  void transmit(packet::PacketBox p);

  /// The receiving node installs its delivery handler here, and the
  /// receive stage every frame passes through (null: none).  The stage
  /// is read when each frame starts serializing.
  void setDeliverHandler(DeliverFn fn, const RxStage* rx_stage = nullptr) {
    deliver_ = std::move(fn);
    rx_stage_ = rx_stage;
  }

  ChannelStats stats() const {
    ChannelStats s = stats_;
    s.loss_drops += arrival_drops_.loss_drops;
    s.down_drops += arrival_drops_.down_drops;
    return s;
  }
  std::size_t queuedBytes() const { return queued_bytes_; }
  const LinkConfig& config() const { return config_; }

  /// Replace the live configuration.  Takes effect for packets not yet
  /// serializing: a frame's rate, propagation delay and loss draw are
  /// fixed when it starts serializing.
  void setConfig(const LinkConfig& config) { config_ = config; }

  /// The longest receive hold (delivery minus arrival) this channel has
  /// granted a frame.  Written by the transmitting node's events; the
  /// link reads it in setUp(), which runs serially.
  sim::Duration longestHold() const { return longest_hold_; }

 private:
  /// Put `p` on the (idle) wire now: count it, draw its loss and its
  /// receive hold, and schedule its delivery.  `queue_span` is its
  /// queueing span.
  void startFrame(packet::PacketBox p, std::uint32_t queue_span);
  /// The wire-free event: start the frame at the head of the queue.
  void startQueued();
  /// When the receive stage hands on a frame that arrives at
  /// `arrived_at`: FIFO behind the previous frame, else after a latency
  /// draw, plus any spike.  Records the hold granted.
  sim::Time receiveAt(sim::Time arrived_at);
  /// The delivery event: settle the frame's fate and hand it on.
  void arrive(packet::PacketBox p, sim::Time serialized_at,
              sim::Time arrived_at, std::uint32_t serialize_span, bool lost);

  // Span plumbing for traced packets (meta.trace_id != 0): the link hop
  // decomposes into queueing, serialization, and propagation spans, and
  // every channel drop site closes the packet's root span with a reason.
  // Times come from the frame's schedule, not only from now().
  std::uint32_t spanOpen(const packet::Packet& p, std::int16_t layer,
                         sim::Time t);
  void spanClose(std::uint32_t span_id, sim::Time t);
  void spanRootDrop(const packet::Packet& p, const char* reason, sim::Time t);

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
  const LinkState& link_;
  DeliverFn deliver_;
  const RxStage* rx_stage_ = nullptr;
  /// When the receive stage hands on the last frame it was given, and
  /// the longest hold it has granted.  The receive FIFO is per incoming
  /// link, like the transmit ring: each channel into a node is fed by
  /// its own transmitting lane.  Written by the transmitting node's
  /// events only.
  sim::Time last_deliver_ = 0;
  sim::Duration longest_hold_ = 0;
  /// The sender's box rides through the queue and the delivery event and
  /// is handed on to deliver_, so a link hop neither allocates nor
  /// copies the 144-byte Packet, and the delivery callback captures only
  /// a pointer and the frame's schedule — small enough for the event
  /// queue's inline storage.
  struct Queued {
    packet::PacketBox packet;
    std::uint32_t span = 0;  ///< queueing-span id (0 = untraced)
  };
  std::deque<Queued> tx_queue_;
  std::size_t queued_bytes_ = 0;
  /// When the frame on the wire finishes serializing.  While frames
  /// wait in tx_queue_, one wire-free event is pending at this time.
  sim::Time busy_until_ = 0;
  /// Written by the transmitting node's events only.
  ChannelStats stats_;
  /// Drops settled at arrival, written by the receiving node's events
  /// only: under the sharded engine the two ends run on different lanes.
  struct ArrivalDrops {
    std::uint64_t loss_drops = 0;
    std::uint64_t down_drops = 0;
  };
  ArrivalDrops arrival_drops_;

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

  bool isUp() const { return state_.up; }
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

  /// Times of the transitions frames still in flight may need, oldest
  /// first (see setUp()).
  const std::vector<sim::Time>& transitions() const {
    return state_.transitions;
  }

 private:
  sim::EventQueue& queue_;
  int id_;
  std::string name_;
  NodeId a_;
  NodeId b_;
  bool degraded_ = false;
  LinkConfig base_config_;
  /// Read by both channels.  A transition at or before now minus the
  /// longest propagation delay either channel has used and the longest
  /// receive hold either has granted is older than every undelivered
  /// frame's end of serialization, so setUp() drops it.
  LinkState state_;
  sim::Duration longest_propagation_ = 0;
  Channel ab_;
  Channel ba_;
  std::vector<StateListener> listeners_;
};

}  // namespace vini::phys
