#include "phys/link.h"

#include <algorithm>
#include <string>
#include <utility>

#include "check/audit.h"

namespace vini::phys {

namespace {

#if VINI_AUDIT_ENABLED
// V102: the running byte counter must equal the sum of the packets
// actually queued — a mismatch means drop-tail accounting drifted and
// every subsequent queue-full decision is wrong.  O(queue) per call,
// audit builds only.
template <typename Queue>
void auditByteAccounting(const Queue& tx_queue, std::size_t queued_bytes) {
  std::size_t sum = 0;
  for (const auto& q : tx_queue) sum += q.packet->wireBytes();
  VINI_AUDIT_CHECK(
      sum == queued_bytes,
      (check::Diagnostic{check::Severity::kError, "V102", "phys channel",
                         "queued_bytes counter " + std::to_string(queued_bytes) +
                             " != " + std::to_string(sum) +
                             " bytes actually queued"}));
}
#else
template <typename Queue>
void auditByteAccounting(const Queue&, std::size_t) {}
#endif

}  // namespace

namespace {

obs::TraceRecord channelRecord(obs::TraceEvent ev, sim::Time t,
                               const packet::Packet& p, std::int16_t link) {
  obs::TraceRecord rec;
  rec.t = t;
  rec.event = ev;
  rec.link = link;
  rec.src = p.ip.src.value();
  rec.dst = p.ip.dst.value();
  rec.flow = p.meta.flow_id;
  rec.seq = p.meta.app_seq;
  rec.bytes = static_cast<std::uint32_t>(p.wireBytes());
  return rec;
}

}  // namespace

Channel::Channel(sim::EventQueue& queue, sim::Random& random,
                 const LinkConfig& config, const LinkState& link,
                 std::string label, sim::NodeTag tx_node, sim::NodeTag rx_node)
    : queue_(queue),
      random_(random),
      config_(config),
      link_(link),
      tx_node_(tx_node),
      rx_node_(rx_node),
      label_(std::move(label)) {
  if (queue_.shardThreads() > 0) lane_random_.emplace(random_.fork());
  if (label_.empty()) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    obs::MetricsRegistry& m = ctx->metrics;
    m_tx_packets_ = &m.counter("phys.link", label_, "tx_packets");
    m_tx_bytes_ = &m.counter("phys.link", label_, "tx_bytes");
    m_queue_drops_ = &m.counter("phys.link", label_, "queue_drops");
    m_loss_drops_ = &m.counter("phys.link", label_, "loss_drops");
    m_down_drops_ = &m.counter("phys.link", label_, "down_drops");
    m_queued_bytes_ = &m.gauge("phys.link", label_, "queued_bytes");
    trace_link_ = ctx->tracer.internLink(label_);
    span_link_ = ctx->spans.intern(label_);
    span_queue_ = ctx->spans.intern("phys.queue");
    span_serialize_ = ctx->spans.intern("phys.serialize");
    span_propagation_ = ctx->spans.intern("phys.propagation");
  }
}

std::uint32_t Channel::spanOpen(const packet::Packet& p, std::int16_t layer,
                                sim::Time t) {
  if (p.meta.trace_id == 0) return 0;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    return ctx->spans.open(p.meta.trace_id, layer, t, -1, span_link_,
                           static_cast<std::uint32_t>(p.wireBytes()));
  }
  return 0;
}

void Channel::spanClose(std::uint32_t span_id, sim::Time t) {
  if (span_id == 0) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) ctx->spans.close(span_id, t);
}

void Channel::spanRootDrop(const packet::Packet& p, const char* reason,
                           sim::Time t) {
  if (p.meta.trace_id == 0) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->spans.closeRoot(p.meta.trace_id, t, obs::SpanOutcome::kDropped,
                         ctx->spans.intern(reason));
  }
}

void Channel::transmit(packet::PacketBox p) {
  const sim::Time now = queue_.now();
  if (!link_.up) {
    ++stats_.down_drops;
    VINI_OBS_INC(m_down_drops_);
    VINI_OBS_TRACE(
        channelRecord(obs::TraceEvent::kDownDrop, now, *p, trace_link_));
    spanRootDrop(*p, "link_down", now);
    return;
  }
  const std::size_t wire = p->wireBytes();
  if (queued_bytes_ + wire > config_.queue_bytes) {
    ++stats_.queue_drops;
    VINI_OBS_INC(m_queue_drops_);
    VINI_OBS_TRACE(
        channelRecord(obs::TraceEvent::kQueueDrop, now, *p, trace_link_));
    spanRootDrop(*p, "queue_full", now);
    return;
  }
  VINI_OBS_TRACE(channelRecord(obs::TraceEvent::kEnqueue, now, *p, trace_link_));
  const std::uint32_t queue_span = spanOpen(*p, span_queue_, now);
  if (tx_queue_.empty() && busy_until_ <= now) {
    startFrame(std::move(p), queue_span);
    return;
  }
  queued_bytes_ += wire;
  VINI_OBS_GAUGE_SET(m_queued_bytes_, static_cast<double>(queued_bytes_));
  tx_queue_.push_back(Queued{std::move(p), queue_span});
  auditByteAccounting(tx_queue_, queued_bytes_);
  if (tx_queue_.size() == 1) {
    queue_.schedule(busy_until_, "phys.link", tx_node_,
                    [this] { startQueued(); });
  }
}

void Channel::startQueued() {
  Queued head = std::move(tx_queue_.front());
  tx_queue_.pop_front();
  const std::size_t wire = head.packet->wireBytes();
  VINI_AUDIT_CHECK(
      wire <= queued_bytes_,
      (check::Diagnostic{check::Severity::kError, "V102", "phys channel",
                         "byte accounting underflow: dequeued " +
                             std::to_string(wire) + " bytes with only " +
                             std::to_string(queued_bytes_) + " accounted"}));
  queued_bytes_ -= wire;
  VINI_OBS_GAUGE_SET(m_queued_bytes_, static_cast<double>(queued_bytes_));
  auditByteAccounting(tx_queue_, queued_bytes_);
  VINI_AUDIT_CHECK(
      !tx_queue_.empty() || queued_bytes_ == 0,
      (check::Diagnostic{check::Severity::kError, "V102", "phys channel",
                         "empty transmit queue but " +
                             std::to_string(queued_bytes_) +
                             " bytes still accounted"}));
  startFrame(std::move(head.packet), head.span);
  if (!tx_queue_.empty()) {
    queue_.schedule(busy_until_, "phys.link", tx_node_,
                    [this] { startQueued(); });
  }
}

void Channel::startFrame(packet::PacketBox p, std::uint32_t queue_span) {
  const sim::Time now = queue_.now();
  spanClose(queue_span, now);
  const std::size_t wire = p->wireBytes();
  // Integer ceiling: a frame holds the wire for at least its bit time.
  // The old float product truncated up to 1 ns/frame, letting
  // back-to-back frames overlap on a saturated link.
  busy_until_ = now + sim::serializationDelay(wire, config_.bandwidth_bps);
  ++stats_.tx_packets;
  stats_.tx_bytes += wire;
  VINI_OBS_INC(m_tx_packets_);
  VINI_OBS_ADD(m_tx_bytes_, wire);
  VINI_OBS_TRACE(
      channelRecord(obs::TraceEvent::kSerializeStart, now, *p, trace_link_));
  const std::uint32_t serialize_span = spanOpen(*p, span_serialize_, now);
  const sim::Time arrived_at = busy_until_ + config_.propagation;
  const bool lost =
      config_.loss_rate > 0.0 && rng().chance(config_.loss_rate);
  // A lost frame never reaches the receiving NIC; it is settled at its
  // arrival.
  const sim::Time deliver_at = lost ? arrived_at : receiveAt(arrived_at);
  // The delivery event belongs to the *receiving* node — this is the
  // cross-node edge whose propagation delay bounds the conservative
  // lookahead window.
  queue_.schedule(deliver_at, "phys.link", rx_node_,
                  [this, p = std::move(p), serialized_at = busy_until_,
                   arrived_at, serialize_span, lost]() mutable {
                    arrive(std::move(p), serialized_at, arrived_at,
                           serialize_span, lost);
                  });
}

sim::Duration sampleNicLatency(sim::Random& random, sim::Duration mean,
                               double jitter) {
  if (mean <= 0) return 0;
  const double m = static_cast<double>(mean);
  const double sample = random.normal(m, m * jitter);
  return static_cast<sim::Duration>(std::clamp(sample, 0.2 * m, 3.0 * m));
}

sim::Time Channel::receiveAt(sim::Time arrived_at) {
  if (rx_stage_ == nullptr) return arrived_at;
  const RxStage& rx = *rx_stage_;
  // Delivery stays FIFO: jittered latencies must not reorder a burst,
  // or TCP sees phantom reordering and spurious dup-ACKs.  The latency
  // is drawn when the receive path is quiet; inside a burst, frames
  // already arrive paced by the wire and pass straight through
  // (re-sampling per frame would ratchet spacing and act as a phantom
  // bottleneck).
  sim::Time at = last_deliver_ > arrived_at
                     ? last_deliver_
                     : arrived_at +
                           sampleNicLatency(rng(), rx.latency_mean, rx.jitter);
  if (rx.spike_probability > 0 && rng().chance(rx.spike_probability)) {
    at += rng().uniformDuration(rx.spike_min, rx.spike_max);
  }
  last_deliver_ = at;
  // Spikes stack inside a burst, so the hold is tracked, not bounded.
  longest_hold_ = std::max(longest_hold_, at - arrived_at);
  return at;
}

bool LinkState::upAt(sim::Time t) const {
  // Transitions alternate, so the state at `t` is the current one
  // flipped once per transition after `t`.
  bool state = up;
  for (auto it = transitions.rbegin(); it != transitions.rend() && *it > t;
       ++it) {
    state = !state;
  }
  return state;
}

void Channel::arrive(packet::PacketBox p, sim::Time serialized_at,
                     sim::Time arrived_at, std::uint32_t serialize_span,
                     bool lost) {
  const sim::Time now = queue_.now();
  auto drop = [&](std::uint64_t& count, [[maybe_unused]] obs::Counter* metric,
                  [[maybe_unused]] obs::TraceEvent event, const char* reason,
                  sim::Time t) {
    ++count;
    VINI_OBS_INC(metric);
    VINI_OBS_TRACE(channelRecord(event, now, *p, trace_link_));
    spanRootDrop(*p, reason, t);
  };
  spanClose(serialize_span, serialized_at);
  if (!link_.upAt(serialized_at)) {
    drop(arrival_drops_.down_drops, m_down_drops_, obs::TraceEvent::kDownDrop,
         "link_down", serialized_at);
    return;
  }
  if (lost) {
    drop(arrival_drops_.loss_drops, m_loss_drops_, obs::TraceEvent::kLossDrop,
         "wire_loss", serialized_at);
    return;
  }
  spanClose(spanOpen(*p, span_propagation_, serialized_at), arrived_at);
  // A link that died mid-flight eats the packet: physical fate sharing.
  // A frame already in the receiving NIC is past the wire's fate.
  if (!link_.upAt(arrived_at)) {
    drop(arrival_drops_.down_drops, m_down_drops_, obs::TraceEvent::kDownDrop,
         "link_down_midflight", arrived_at);
    return;
  }
  if (deliver_) deliver_(std::move(p), arrived_at);
}

PhysLink::PhysLink(int id, std::string name, NodeId a, NodeId b,
                   sim::EventQueue& queue, sim::Random& random,
                   LinkConfig config, const std::string& a_name,
                   const std::string& b_name)
    : queue_(queue),
      id_(id),
      name_(std::move(name)),
      a_(a),
      b_(b),
      base_config_(config),
      longest_propagation_(config.propagation),
      ab_(queue, random, config, state_, name_ + "/ab",
          a_name.empty() ? sim::kNoNode : queue.internNodeTag(a_name),
          b_name.empty() ? sim::kNoNode : queue.internNodeTag(b_name)),
      ba_(queue, random, config, state_, name_ + "/ba",
          b_name.empty() ? sim::kNoNode : queue.internNodeTag(b_name),
          a_name.empty() ? sim::kNoNode : queue.internNodeTag(a_name)) {}

void PhysLink::setUp(bool up) {
  if (up == state_.up) return;
  state_.up = up;
  // An undelivered frame is delivered at or after now, so it finished
  // serializing at or after now minus its propagation delay and its
  // receive hold; older transitions can no longer decide any frame's
  // fate.
  const sim::Time now = queue_.now();
  const sim::Time horizon =
      now - longest_propagation_ -
      std::max(ab_.longestHold(), ba_.longestHold());
  std::vector<sim::Time>& log = state_.transitions;
  auto stale = log.begin();
  while (stale != log.end() && *stale <= horizon) ++stale;
  log.erase(log.begin(), stale);
  log.push_back(now);
  for (auto& listener : listeners_) listener(*this, up);
}

void PhysLink::applyConfig(LinkConfig config) {
  // The routing weight stays authoritative from construction; a degrade
  // must not silently reroute the underlay.
  config.weight = base_config_.weight;
  longest_propagation_ = std::max(longest_propagation_, config.propagation);
  ab_.setConfig(config);
  ba_.setConfig(config);
  degraded_ = true;
}

void PhysLink::restoreConfig() {
  ab_.setConfig(base_config_);
  ba_.setConfig(base_config_);
  degraded_ = false;
}

}  // namespace vini::phys
