#include "click/flat_label.h"

namespace vini::click {

void FlatLabelRoute::addPeer(std::uint64_t label, packet::IpAddress node_addr,
                             std::uint16_t port) {
  peers_[label] = Peer{node_addr, port};
}

bool FlatLabelRoute::removePeer(std::uint64_t label) {
  return peers_.erase(label) != 0;
}

std::uint64_t FlatLabelRoute::ownerOf(std::uint64_t key) const {
  // Successor on the ring: the smallest clockwise distance key -> label.
  std::uint64_t best = own_label_;
  std::uint64_t best_distance = own_label_ - key;  // mod 2^64 arithmetic
  for (const auto& [label, peer] : peers_) {
    const std::uint64_t distance = label - key;
    if (distance < best_distance) {
      best = label;
      best_distance = distance;
    }
  }
  return best;
}

void FlatLabelRoute::push(int, packet::Packet&& p) {
  const std::uint64_t owner = ownerOf(p.meta.flow_id);
  if (owner == own_label_) {
    output(1, std::move(p));  // we own the key: local delivery
    return;
  }
  const Peer& peer = peers_.at(owner);
  p.meta.encap_dst = peer.node;
  p.meta.encap_port = peer.port;
  output(0, std::move(p));
}

}  // namespace vini::click
