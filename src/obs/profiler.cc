#include "obs/profiler.h"

namespace vini::obs {

void EventLoopProfiler::attach(sim::EventQueue& queue) {
  detach();
  queue_ = &queue;
  queue_->setProfiler(
      [this](const char* tag, sim::NodeTag node, std::int64_t wall_ns) {
        onEvent(tag, node, wall_ns);
      });
}

void EventLoopProfiler::detach() {
  if (queue_ != nullptr) {
    queue_->setProfiler(nullptr);
    node_names_.clear();
    for (std::size_t i = 0; i < queue_->nodeTagCount(); ++i) {
      node_names_.push_back(queue_->nodeTagName(static_cast<sim::NodeTag>(i)));
    }
    queue_ = nullptr;
  }
}

void EventLoopProfiler::onEvent(const char* tag, sim::NodeTag node,
                                std::int64_t wall_ns) {
  std::string key = tag != nullptr ? tag : "untagged";
  HandlerStat& s = stats_[key];
  ++s.events;
  s.wall_ns += wall_ns;
  HandlerStat& ns = node_stats_[{std::move(key), node}];
  ++ns.events;
  ns.wall_ns += wall_ns;
  ++total_events_;
  total_wall_ns_ += wall_ns;
}

const std::string& EventLoopProfiler::nodeName(sim::NodeTag node) const {
  // nodeTagName returns "-" for kNoNode, pooling unattributed events.
  if (queue_ != nullptr) return queue_->nodeTagName(node);
  static const std::string kUnattributed = "-";
  return node < node_names_.size() ? node_names_[node] : kUnattributed;
}

std::map<std::pair<std::string, std::string>, EventLoopProfiler::HandlerStat>
EventLoopProfiler::nodeStats() const {
  std::map<std::pair<std::string, std::string>, HandlerStat> out;
  for (const auto& [key, s] : node_stats_) {
    HandlerStat& o = out[{key.first, nodeName(key.second)}];
    o.events += s.events;
    o.wall_ns += s.wall_ns;
  }
  return out;
}

void EventLoopProfiler::writeCsv(std::ostream& os) const {
  os << "tag,node,events,wall_ns\n";
  for (const auto& [key, s] : nodeStats()) {
    os << key.first << "," << key.second << "," << s.events << "," << s.wall_ns
       << "\n";
  }
}

void EventLoopProfiler::clear() {
  stats_.clear();
  node_stats_.clear();
  total_events_ = 0;
  total_wall_ns_ = 0;
}

}  // namespace vini::obs
