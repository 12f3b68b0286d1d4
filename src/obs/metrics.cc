#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "obs/export_writer.h"

namespace vini::obs {

const char* metricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {}

Histogram::Histogram(const Histogram& other) : bounds_(other.bounds_) {
  // atomics are not copyable; snapshot element-wise (registry copies
  // happen at registration/merge time, never concurrently with writes).
  buckets_ = std::vector<std::atomic<std::uint64_t>>(other.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.bucketValue(i), std::memory_order_relaxed);
  }
  count_.store(other.count(), std::memory_order_relaxed);
  sum_.store(other.sum(), std::memory_order_relaxed);
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  bounds_ = other.bounds_;
  buckets_ = std::vector<std::atomic<std::uint64_t>>(other.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.bucketValue(i), std::memory_order_relaxed);
  }
  count_.store(other.count(), std::memory_order_relaxed);
  sum_.store(other.sum(), std::memory_order_relaxed);
  return *this;
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0 || bounds_.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const std::uint64_t in_bucket = bucketValue(i);
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      if (in_bucket == 0) return upper;
      const double within = rank - static_cast<double>(cumulative);
      return lower +
             (upper - lower) * within / static_cast<double>(in_bucket);
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::logic_error(
        "obs: histogram merge with mismatched bucket bounds");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(other.bucketValue(i), std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  const double delta = other.sum();
  while (!sum_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

namespace {

MetricType typeOf(const std::variant<Counter, Gauge, Histogram>& m) {
  if (std::holds_alternative<Counter>(m)) return MetricType::kCounter;
  if (std::holds_alternative<Gauge>(m)) return MetricType::kGauge;
  return MetricType::kHistogram;
}

/// FNV-1a over the node name: the deterministic fallback router for
/// keys whose node field is not a listed physical node.  Stable across
/// runs, platforms, and registration order by construction.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::size_t kUncheckedPartition = static_cast<std::size_t>(-1);

}  // namespace

void MetricsRegistry::partitionByNode(
    const std::vector<std::vector<std::string>>& groups) {
  shard_.assertHeld();
  if (parts_.size() != 1) {
    throw std::logic_error("obs: registry already partitioned");
  }
  if (!parts_[0].empty()) {
    throw std::logic_error(
        "obs: partitionByNode() after metrics were registered");
  }
  if (groups.empty()) {
    throw std::logic_error("obs: partitionByNode() with no groups");
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::string& node : groups[g]) {
      if (!node_part_.emplace(node, g).second) {
        throw std::logic_error("obs: node " + node +
                               " assigned to two partitions");
      }
    }
  }
  parts_.resize(groups.size());
}

std::size_t MetricsRegistry::partitionOf(const std::string& node) const {
  shard_.assertHeld();
  if (parts_.size() == 1) return 0;
  const auto it = node_part_.find(node);
  if (it != node_part_.end()) return it->second;
  return static_cast<std::size_t>(fnv1a(node) % parts_.size());
}

ScopedRegistry MetricsRegistry::scoped(const std::string& node) {
  shard_.assertHeld();
  return ScopedRegistry(*this, partitionOf(node));
}

template <typename T>
T& MetricsRegistry::registerScoped(std::size_t claimed_part,
                                   const std::string& component,
                                   const std::string& node,
                                   const std::string& name, T initial) {
  shard_.assertHeld();
  MetricKey key{component, node, name};
  const std::size_t part = partitionOf(node);
  if (claimed_part != kUncheckedPartition && claimed_part != part) {
    throw std::logic_error(
        "obs: metric " + key.str() + " registered through partition " +
        std::to_string(claimed_part) + " scope but routes to partition " +
        std::to_string(part));
  }
  auto [it, inserted] = parts_[part].try_emplace(key, std::move(initial));
  if (!inserted && !std::holds_alternative<T>(it->second)) {
    throw std::logic_error("obs: metric " + key.str() +
                           " re-registered with different type (was " +
                           metricTypeName(typeOf(it->second)) + ")");
  }
  return std::get<T>(it->second);
}

template <typename T>
T& MetricsRegistry::registerAs(const std::string& component,
                               const std::string& node,
                               const std::string& name, T initial) {
  return registerScoped(kUncheckedPartition, component, node, name,
                        std::move(initial));
}

Counter& MetricsRegistry::counter(const std::string& component,
                                  const std::string& node,
                                  const std::string& name) {
  shard_.assertHeld();
  return registerAs(component, node, name, Counter{});
}

Gauge& MetricsRegistry::gauge(const std::string& component,
                              const std::string& node,
                              const std::string& name) {
  shard_.assertHeld();
  return registerAs(component, node, name, Gauge{});
}

Histogram& MetricsRegistry::histogram(const std::string& component,
                                      const std::string& node,
                                      const std::string& name,
                                      std::vector<double> upper_bounds) {
  shard_.assertHeld();
  return registerAs(component, node, name,
                    Histogram{std::move(upper_bounds)});
}

Counter& ScopedRegistry::counter(const std::string& component,
                                 const std::string& node,
                                 const std::string& name) {
  return parent_->registerScoped(part_, component, node, name, Counter{});
}

Gauge& ScopedRegistry::gauge(const std::string& component,
                             const std::string& node,
                             const std::string& name) {
  return parent_->registerScoped(part_, component, node, name, Gauge{});
}

Histogram& ScopedRegistry::histogram(const std::string& component,
                                     const std::string& node,
                                     const std::string& name,
                                     std::vector<double> upper_bounds) {
  return parent_->registerScoped(part_, component, node, name,
                                 Histogram{std::move(upper_bounds)});
}

const MetricsRegistry::Metric* MetricsRegistry::find(
    const std::string& component, const std::string& node,
    const std::string& name) const {
  shard_.assertHeld();
  const Partition& part = parts_[partitionOf(node)];
  const auto it = part.find(MetricKey{component, node, name});
  return it == part.end() ? nullptr : &it->second;
}

const Counter* MetricsRegistry::findCounter(const std::string& component,
                                            const std::string& node,
                                            const std::string& name) const {
  shard_.assertHeld();
  const Metric* m = find(component, node, name);
  return m ? std::get_if<Counter>(m) : nullptr;
}

const Gauge* MetricsRegistry::findGauge(const std::string& component,
                                        const std::string& node,
                                        const std::string& name) const {
  shard_.assertHeld();
  const Metric* m = find(component, node, name);
  return m ? std::get_if<Gauge>(m) : nullptr;
}

const Histogram* MetricsRegistry::findHistogram(const std::string& component,
                                                const std::string& node,
                                                const std::string& name) const {
  shard_.assertHeld();
  const Metric* m = find(component, node, name);
  return m ? std::get_if<Histogram>(m) : nullptr;
}

std::uint64_t MetricsRegistry::counterValue(const std::string& component,
                                            const std::string& node,
                                            const std::string& name) const {
  shard_.assertHeld();
  const Counter* c = findCounter(component, node, name);
  return c ? c->value() : 0;
}

std::uint64_t MetricsRegistry::sumCounters(const std::string& component,
                                           const std::string& name) const {
  shard_.assertHeld();
  std::uint64_t total = 0;
  for (const Partition& part : parts_) {
    for (const auto& [key, metric] : part) {
      if (key.component != component || key.name != name) continue;
      if (const Counter* c = std::get_if<Counter>(&metric)) total += c->value();
    }
  }
  return total;
}

std::size_t MetricsRegistry::size() const {
  shard_.assertHeld();
  std::size_t n = 0;
  for (const Partition& part : parts_) n += part.size();
  return n;
}

void MetricsRegistry::visitSorted(
    const std::function<void(const MetricKey&, const Metric&)>& visit) const {
  // k-way merge over the per-partition sorted maps.  Keys are disjoint
  // across partitions (routing is a pure function of the key), so the
  // merged walk is exactly the monolithic map's iteration order.
  std::vector<Partition::const_iterator> heads;
  heads.reserve(parts_.size());
  for (const Partition& part : parts_) heads.push_back(part.begin());
  for (;;) {
    std::size_t best = parts_.size();
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (heads[i] == parts_[i].end()) continue;
      if (best == parts_.size() || heads[i]->first < heads[best]->first) {
        best = i;
      }
    }
    if (best == parts_.size()) return;
    visit(heads[best]->first, heads[best]->second);
    ++heads[best];
  }
}

void MetricsRegistry::forEach(
    const std::function<void(const MetricKey&, MetricType)>& visit) const {
  shard_.assertHeld();
  visitSorted(
      [&](const MetricKey& key, const Metric& m) { visit(key, typeOf(m)); });
}

void MetricsRegistry::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  ExportWriter w(os);
  w.put("component,node,name,type,value\n");
  visitSorted([&](const MetricKey& key, const Metric& metric) {
    auto row = [&](std::string_view type) -> ExportWriter& {
      w.put(key.component).put(',').put(key.node).put(',').put(key.name);
      return w.put(',').put(type);
    };
    if (const Counter* c = std::get_if<Counter>(&metric)) {
      row("counter,").putInt(c->value()).put('\n');
    } else if (const Gauge* g = std::get_if<Gauge>(&metric)) {
      row("gauge,").putG6(g->value()).put('\n');
    } else if (const Histogram* h = std::get_if<Histogram>(&metric)) {
      row("histogram_count,").putInt(h->count()).put('\n');
      row("histogram_sum,").putG6(h->sum()).put('\n');
      row("histogram_p50,").putG6(h->quantile(0.50)).put('\n');
      row("histogram_p95,").putG6(h->quantile(0.95)).put('\n');
      row("histogram_p99,").putG6(h->quantile(0.99)).put('\n');
      for (std::size_t i = 0; i < h->bucketCount(); ++i) {
        if (i < h->bounds().size()) {
          row("histogram_bucket_le_").putG6(h->upperBound(i));
        } else {
          row("histogram_bucket_overflow");
        }
        w.put(',').putInt(h->bucketValue(i)).put('\n');
      }
    }
  });
  w.flush();
}

void mergeRegistries(const std::vector<const MetricsRegistry*>& from,
                     MetricsRegistry& into) {
  into.shard_.assertHeld();
  for (const MetricsRegistry* src : from) {
    if (src == nullptr || src == &into) continue;
    src->shard_.assertHeld();
    for (const MetricsRegistry::Partition& part : src->parts_) {
      for (const auto& [key, metric] : part) {
        MetricsRegistry::Partition& dst =
            into.parts_[into.partitionOf(key.node)];
        auto [it, inserted] = dst.try_emplace(key, metric);
        if (inserted) continue;
        if (it->second.index() != metric.index()) {
          throw std::logic_error("obs: merge of metric " + key.str() +
                                 " with conflicting types");
        }
        if (auto* c = std::get_if<Counter>(&it->second)) {
          c->merge(std::get<Counter>(metric));
        } else if (auto* g = std::get_if<Gauge>(&it->second)) {
          g->merge(std::get<Gauge>(metric));
        } else {
          std::get<Histogram>(it->second).merge(std::get<Histogram>(metric));
        }
      }
    }
  }
}

}  // namespace vini::obs
