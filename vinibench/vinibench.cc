// vinibench — the libvini benchmark.
//
// Three workloads drawn from the paper's own experiments, driven only
// through the public topo / World / EventQueue / obs API (README.md gives
// the reason for each and the meaning of every metric):
//
//   abilene-udp-flood   Abilene-11 IIAS mirror, contention 0, eight
//                       open-loop iperf UDP pairs offering 120 Mb/s onto
//                       100 Mb/s access NICs; sharded engine at one
//                       thread, and again at min(4, nproc) threads as
//                       the determinism partner.
//   deter-tcp-iias      Table 2's IIAS row: 20 closed-loop TCP streams
//                       Src -> Fwdr (user-space Click) -> Sink.
//   abilene-fig8-sweep  Figure 8 on many short worlds: PL-VINI Abilene
//                       under a ScopedObs, ping Washington -> Seattle,
//                       fail and restore Denver-KansasCity, then fold and
//                       export the obs plane to memory.
//
// A unit is one world, from the world-factory call to the end of its
// checks and exports; unit i of a run uses seed base + i.  A run repeats
// units until --seconds of wall time are spent and reports the median of
// each metric over its units.  End-to-end times are scaled to a nominal
// host speed measured around every unit (see "Host speed" below).
//
//   vinibench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//   vinibench --self-test
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs every unit
// untraced and then traced — wall-clock spans around the benchmark's own
// calls into each layer, per-tag handler time over the measured window —
// and reports the per-layer metrics.  stdout carries the table of every
// row this workload measured; with --out, the same table with quartiles,
// the host fingerprint and (traced) the span file as Chrome trace JSON
// are written to DIR.  The last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics (every row's value);
// run.py narrows metrics to the names BENCHMARK.json declares.  The exit
// code is 1 when any unit failed its correctness check.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "app/iperf.h"
#include "app/ping.h"
#include "obs/obs.h"
#include "topo/worlds.h"

using namespace vini;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (user + sys, every thread).
double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Host speed.  The shared host this benchmark runs on changes speed by up
// to 2x, in streaks of seconds to minutes, and process CPU time moves with
// wall time, so the slowdown is the host running every instruction slower.
// Each unit is bracketed by a fixed reference job — the work of a small
// event loop: heap pushes and pops, hash-map updates and packet-sized
// copies over a few MiB — and its times are scaled by nominal / measured
// reference time.  The reference job is the benchmark's own code, so a
// change to libvini moves the unit's time and never the scale.

/// The reference job's time on a quiet fingerprint host; it sets the
/// scale so that normalised times read as seconds on that host.
constexpr double kReferenceNominalS = 1.4e-3;

/// One pass of the reference job.  Returns a checksum so the work cannot
/// be optimised away.
std::uint64_t referenceJob() {
  constexpr std::size_t kEvents = 6000;
  constexpr std::size_t kSlots = 1 << 15;
  constexpr std::size_t kRing = 4u << 20;  // bytes
  constexpr std::size_t kPacket = 1430;
  static std::vector<unsigned char> ring(kRing, 1);
  static std::vector<unsigned char> packet(kPacket, 2);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  heap.reserve(256);
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  table.reserve(kSlots / 4);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t now = 0;
  std::uint64_t sum = 0;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < 128; ++i) heap.emplace_back(next() % 4096, i);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  for (std::size_t i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [when, id] = heap.back();
    heap.pop_back();
    now = when;
    const std::uint64_t r = next();
    table[static_cast<std::uint32_t>(r % kSlots)] += now ^ id;
    std::memcpy(&ring[offset], packet.data(), kPacket);
    sum += ring[(offset + r) % kRing];
    offset = (offset + kPacket + (r & 63)) % (kRing - kPacket);
    heap.emplace_back(now + 1 + (r >> 40) % 4096, id);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if ((r & 7) == 0) {
      heap.emplace_back(now + 1 + (r >> 20) % 4096, id + 1);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
  return sum + table.size() + now;
}

/// Wall time of the reference job now: the fastest of a few passes, so a
/// single preemption does not count as a slow host.
double referenceSeconds() {
  static volatile std::uint64_t sink = 0;
  double best = 1e9;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point start = Clock::now();
    sink = sink + referenceJob();
    best = std::min(best, secondsSince(start));
  }
  return best;
}

/// Host fingerprint: absolute numbers compare only between results
/// whose fingerprints match.
std::string fingerprintJson() {
  return "{\"nproc\": " + std::to_string(usableCpus()) +
         ", \"cpu_model\": " + jsonString(cpuModel()) +
         ", \"build_type\": " + jsonString(VINIBENCH_BUILD_TYPE) +
         ", \"compiler\": " + jsonString(VINIBENCH_COMPILER) +
         ", \"vini_obs\": \"ON\"}";
}

// ---------------------------------------------------------------------------
// Benchmark spans: wall-clock intervals around the benchmark's own calls
// into a layer.  Spans of one unit share its id; they stay in memory and
// are written once, at exit, as Chrome trace JSON (one track per unit).

struct Span {
  std::uint64_t unit = 0;
  const char* name = "";
  double start_s = 0.0;
  double dur_s = 0.0;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void add(std::uint64_t unit, const char* name, Clock::time_point start,
           double dur_s) {
    spans_.push_back({unit, name,
                      std::chrono::duration<double>(start - origin_).count(),
                      dur_s});
  }

  void writeChromeTrace(std::ostream& os) const {
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"unit\": %llu}}%s\n",
                    s.name, static_cast<unsigned long long>(s.unit),
                    1e6 * s.start_s, 1e6 * s.dur_s,
                    static_cast<unsigned long long>(s.unit),
                    i + 1 == spans_.size() ? "" : ",");
      os << buf;
    }
    os << "]}\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times the benchmark's calls into a layer for one unit.  Durations are
/// always measured (they feed the end-to-end metrics); spans are kept only
/// when the unit is traced.
class Recorder {
 public:
  Recorder(SpanLog* log, std::uint64_t unit) : log_(log), unit_(unit) {}

  template <typename F>
  double time(const char* name, F&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const double dur = secondsSince(start);
    if (log_) log_->add(unit_, name, start, dur);
    return dur;
  }

  bool traced() const { return log_ != nullptr; }

 private:
  SpanLog* log_;
  std::uint64_t unit_;
};

// ---------------------------------------------------------------------------
// Correctness checks.  Each reads a plain observation of a unit's outputs
// and returns one message per violated expectation (empty = correct), so
// the self-test can feed them deliberately wrong outputs.

struct FloodObservation {
  std::vector<std::uint64_t> server_packets;  // per iperf server, in window
  std::uint64_t events = 0;                   // at the unit's thread count
  std::uint64_t wire_packets = 0;
  std::uint64_t reference_events = 0;  // same seed, 1 thread
  std::uint64_t reference_wire_packets = 0;
};

std::vector<std::string> checkFlood(const FloodObservation& o) {
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < o.server_packets.size(); ++i) {
    if (o.server_packets[i] == 0) {
      failures.push_back("iperf server " + std::to_string(i) +
                         " received no datagrams");
    }
  }
  if (o.server_packets.empty()) failures.push_back("no iperf servers");
  if (o.events != o.reference_events ||
      o.wire_packets != o.reference_wire_packets) {
    failures.push_back(
        "sharded determinism: " + std::to_string(o.events) + " events / " +
        std::to_string(o.wire_packets) + " wire packets vs 1-thread " +
        std::to_string(o.reference_events) + " / " +
        std::to_string(o.reference_wire_packets));
  }
  return failures;
}

struct DeterObservation {
  double goodput_mbps = 0.0;    // aggregate server-side goodput
  double click_cpu_share = 0.0;  // Fwdr's Click process, over the send window
};

/// Table 2, IIAS row (EXPERIMENTS.md): 193 Mb/s at ~100% Click CPU.  A
/// share above 1 means the CPU accounting billed more than the window.
std::vector<std::string> checkDeter(const DeterObservation& o) {
  std::vector<std::string> failures;
  if (!(o.goodput_mbps >= 187.0 && o.goodput_mbps <= 199.0)) {
    failures.push_back("goodput " + jsonNumber(o.goodput_mbps) +
                       " Mb/s outside the Table 2 IIAS band [187, 199]");
  }
  if (!(o.click_cpu_share >= 0.97 && o.click_cpu_share <= 1.0)) {
    failures.push_back("Click CPU " + jsonNumber(o.click_cpu_share) +
                       " outside the Table 2 IIAS band [0.97, 1]");
  }
  return failures;
}

constexpr double kFig8ProbeInterval = 0.5;  // s
constexpr std::uint64_t kFig8Probes = 110;
constexpr double kFig8FailAt = 10.0;     // s after convergence
constexpr double kFig8RestoreAt = 34.0;  // s
constexpr double kFig8RunFor = 58.0;     // s

struct Fig8Observation {
  std::uint64_t probes_sent = 0;
  /// Replies as (probe sequence number, RTT in ms); probe k was sent
  /// (k - 1) * kFig8ProbeInterval after the failure schedule's origin.
  std::vector<std::pair<std::uint64_t, double>> replies;
  std::uint64_t spans_open = 0;  // hop spans still open after the fold
  std::uint64_t roots_open = 0;  // end-to-end spans still open
};

/// Figure 8 (EXPERIMENTS.md): ~71.5 ms northern plateau, an ~8 s outage
/// after the failure at 10 s, ~90.6 ms southern plateau, back to ~71.6 ms
/// after the restore at 34 s.
std::vector<std::string> checkFig8(const Fig8Observation& o) {
  std::vector<std::string> failures;
  if (o.probes_sent != kFig8Probes) {
    failures.push_back("sent " + std::to_string(o.probes_sent) + " probes, want " +
                       std::to_string(kFig8Probes));
  }
  auto sentAt = [](std::uint64_t seq) {
    return static_cast<double>(seq - 1) * kFig8ProbeInterval;
  };
  auto plateau = [&](const char* name, double from, double to, double lo,
                     double hi) {
    std::vector<double> rtts;
    for (const auto& [seq, rtt] : o.replies) {
      if (sentAt(seq) >= from && sentAt(seq) < to) rtts.push_back(rtt);
    }
    if (rtts.empty()) {
      failures.push_back(std::string(name) + " plateau has no replies");
      return;
    }
    std::sort(rtts.begin(), rtts.end());
    const double median = rtts[rtts.size() / 2];
    if (median < lo || median > hi) {
      failures.push_back(std::string(name) + " plateau " + jsonNumber(median) +
                         " ms outside [" + jsonNumber(lo) + ", " +
                         jsonNumber(hi) + "]");
    }
  };
  plateau("northern", 0.0, kFig8FailAt, 66.0, 77.0);
  plateau("southern", 22.0, 32.0, 85.0, 96.0);
  plateau("restored", 46.0, kFig8RunFor, 66.0, 77.0);

  // Lost probes: only inside one outage window that opens with the
  // failure and lasts about a dead interval.
  std::vector<bool> answered(o.probes_sent + 1, false);
  for (const auto& [seq, rtt] : o.replies) {
    if (seq >= 1 && seq <= o.probes_sent) answered[seq] = true;
  }
  double first_lost = -1.0;
  double last_lost = -1.0;
  for (std::uint64_t seq = 1; seq <= o.probes_sent; ++seq) {
    if (answered[seq]) continue;
    const double t = sentAt(seq);
    if (t < kFig8FailAt || t >= 22.0) {
      failures.push_back("probe " + std::to_string(seq) + " sent at " +
                         jsonNumber(t) + " s lost outside the outage");
    }
    if (first_lost < 0) first_lost = t;
    last_lost = t;
  }
  const double outage =
      first_lost < 0 ? 0.0 : last_lost - first_lost + kFig8ProbeInterval;
  if (outage < 5.0 || outage > 11.0) {
    failures.push_back("outage " + jsonNumber(outage) +
                       " s outside [5, 11] (dead interval 10 s)");
  }
  if (o.spans_open != 0 || o.roots_open != 0) {
    failures.push_back(std::to_string(o.spans_open) + " hop spans and " +
                       std::to_string(o.roots_open) +
                       " root spans left open");
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Per-tag handler time.

struct TagStat {
  std::uint64_t events = 0;
  std::int64_t wall_ns = 0;
};

/// Handler wall time per schedule tag over one window, read through the
/// queue's public profiling hook.  This is the hook obs::EventLoopProfiler
/// installs, but that profiler names each event's node through
/// EventQueue::nodeTagName, whose shard-ownership check aborts when a lane
/// of the sharded engine runs the handler; so the benchmark keeps its own
/// per-tag totals and reads every workload the same way.  Installing the
/// hook makes the sharded engine run its lanes serially.
class TagProfile {
 public:
  explicit TagProfile(sim::EventQueue& queue) : queue_(queue) {
    queue_.setProfiler([this](const char* tag, sim::NodeTag, std::int64_t ns) {
      TagStat& s = by_tag_[tag];
      ++s.events;
      s.wall_ns += ns;
    });
  }
  ~TagProfile() { queue_.setProfiler(nullptr); }

  TagProfile(const TagProfile&) = delete;
  TagProfile& operator=(const TagProfile&) = delete;

  /// Totals by tag name ("untagged" for events scheduled without one).
  std::map<std::string, TagStat> byName() const {
    std::map<std::string, TagStat> out;
    for (const auto& [tag, s] : by_tag_) {
      TagStat& o = out[tag != nullptr ? tag : "untagged"];
      o.events += s.events;
      o.wall_ns += s.wall_ns;
    }
    return out;
  }

 private:
  sim::EventQueue& queue_;
  std::unordered_map<const char*, TagStat> by_tag_;
};

// ---------------------------------------------------------------------------
// Units.

struct UnitResult {
  // End to end (seconds).
  double wall_s = 0.0;
  double setup_s = 0.0;
  double window_wall_s = 0.0;
  double window_sim_s = 0.0;
  double window_cpu_s = 0.0;
  // Calls into layers (seconds).
  double build_s = 0.0;
  double converge_s = 0.0;
  double fold_s = 0.0;
  double export_s = 0.0;
  // Counts over the measured window (peaks: over the world's life).
  std::uint64_t events = 0;
  std::uint64_t unattributed_events = 0;
  std::uint64_t same_node_scheduled = 0;
  std::uint64_t cross_node_scheduled = 0;
  std::uint64_t wire_packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t peak_storage = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t spans = 0;
  double goodput_mbps = 0.0;
  double click_busy_share = 0.0;  // busiest Click process
  // Traced units: handler time per schedule tag over the window.
  std::map<std::string, TagStat> tags;
  std::int64_t handler_ns = 0;
  // What the checks read.
  FloodObservation flood;
  DeterObservation deter;
  Fig8Observation fig8;
  std::vector<std::string> failures;

  double simWallRatio() const {
    return window_wall_s > 0 ? window_sim_s / window_wall_s : 0.0;
  }
};

/// Engine and layer counters sampled at the edges of the measured window.
struct WindowCounters {
  std::uint64_t executed = 0;
  std::uint64_t unattributed = 0;
  std::uint64_t same_node = 0;
  std::uint64_t cross_node = 0;
  std::uint64_t wire_packets = 0;
  std::uint64_t drops = 0;
  sim::Time now = 0;
  double cpu_s = 0.0;

  static WindowCounters read(topo::World& world) {
    WindowCounters c;
    const sim::EventQueue& q = world.queue;
    c.executed = q.executedCount();
    c.unattributed = q.unattributedExecutedCount();
    c.same_node = q.sameNodeScheduledCount();
    c.cross_node = q.crossNodeScheduledCount();
    for (const auto& link : world.net.links()) {
      for (const phys::NodeId end : {link->nodeA(), link->nodeB()}) {
        const phys::ChannelStats& s = link->channelFrom(end).stats();
        c.wire_packets += s.tx_packets;
        c.drops += s.queue_drops + s.loss_drops + s.down_drops;
      }
    }
    for (const auto& node : world.net.nodes()) {
      if (tcpip::HostStack* stack = world.stacks.get(node->id())) {
        c.drops += stack->stats().dropped_nic_queue;
      }
    }
    c.now = q.now();
    c.cpu_s = processCpuSeconds();
    return c;
  }
};

/// Fills the window fields of `r` from counters read before and after.
void recordWindow(UnitResult& r, const WindowCounters& a,
                  const WindowCounters& b, const topo::World& world) {
  r.window_sim_s = sim::toSeconds(b.now - a.now);
  r.window_cpu_s = b.cpu_s - a.cpu_s;
  r.events = b.executed - a.executed;
  r.unattributed_events = b.unattributed - a.unattributed;
  r.same_node_scheduled = b.same_node - a.same_node;
  r.cross_node_scheduled = b.cross_node - a.cross_node;
  r.wire_packets = b.wire_packets - a.wire_packets;
  r.drops = b.drops - a.drops;
  r.peak_pending = world.queue.peakPendingCount();
  r.peak_storage = world.queue.peakStorageCount();
  if (world.iias && r.window_sim_s > 0) {
    for (const auto& router : world.iias->routers()) {
      r.click_busy_share = std::max(
          r.click_busy_share,
          sim::toSeconds(router->clickProcess().consumedCpu()) / r.window_sim_s);
    }
  }
}

void resetClickAccounting(topo::World& world) {
  if (!world.iias) return;
  for (const auto& router : world.iias->routers()) {
    router->clickProcess().resetAccounting();
  }
}

/// Runs `window` over the measured window; with a traced recorder the
/// per-tag profile covers exactly that call.
template <typename F>
void measureWindow(UnitResult& r, topo::World& world, Recorder& rec,
                   F&& window) {
  resetClickAccounting(world);
  std::optional<TagProfile> profile;
  if (rec.traced()) profile.emplace(world.queue);
  const WindowCounters before = WindowCounters::read(world);
  r.window_wall_s = rec.time("sim.window", window);
  const WindowCounters after = WindowCounters::read(world);
  if (profile) {
    r.tags = profile->byName();
    for (const auto& [tag, s] : r.tags) r.handler_ns += s.wall_ns;
    profile.reset();
  }
  recordWindow(r, before, after, world);
}

/// Factory call through runUntilConverged: the set-up every unit pays.
template <typename Factory>
std::unique_ptr<topo::World> setUp(UnitResult& r, Recorder& rec,
                                   sim::Duration deadline, Factory&& factory) {
  std::unique_ptr<topo::World> world;
  bool converged = false;
  r.build_s = rec.time("topo.build", [&] { world = factory(); });
  r.converge_s = rec.time("xorp.converge",
                          [&] { converged = world->runUntilConverged(deadline); });
  r.setup_s = r.build_s + r.converge_s;
  if (!converged) {
    r.failures.push_back("world did not converge");
    return nullptr;
  }
  return world;
}

// -- abilene-udp-flood --------------------------------------------------------

/// Short enough (about 0.2 s of wall time) that the host-speed reference
/// taken on either side of a unit still describes the host during it.
constexpr int kFloodWindowSeconds = 1;

UnitResult runFloodUnit(std::uint64_t seed, int threads, Recorder& rec) {
  UnitResult r;
  const Clock::time_point start = Clock::now();
  topo::WorldOptions options;
  options.seed = seed;
  options.contention = 0.0;
  options.threads = threads;
  auto world = setUp(r, rec, 180 * sim::kSecond,
                     [&] { return topo::makeAbileneWorld(options); });
  if (!world) return r;
  const sim::Time t0 = world->queue.now();

  // bench_engine's saturating load: 120 Mb/s of 1430-byte datagrams per
  // pair against 100 Mb/s access NICs, across the backbone both ways.
  static const char* kPairs[][2] = {
      {"Washington", "Seattle"},   {"Seattle", "Atlanta"},
      {"Sunnyvale", "NewYork"},    {"LosAngeles", "Chicago"},
      {"Houston", "Indianapolis"}, {"Denver", "Atlanta"},
      {"NewYork", "Sunnyvale"},    {"Atlanta", "KansasCity"},
  };
  std::vector<std::unique_ptr<app::IperfUdpServer>> servers;
  std::vector<std::unique_ptr<app::IperfUdpClient>> clients;
  std::uint16_t port = 5001;
  for (const auto& pair : kPairs) {
    servers.push_back(
        std::make_unique<app::IperfUdpServer>(world->stack(pair[1]), port));
    clients.push_back(std::make_unique<app::IperfUdpClient>(
        world->stack(pair[0]), world->tapOf(pair[1]), port, 120e6, 1430,
        world->tapOf(pair[0])));
    clients.back()->start(kFloodWindowSeconds * sim::kSecond);
    ++port;
  }
  measureWindow(r, *world, rec, [&] {
    world->queue.runUntil(t0 + kFloodWindowSeconds * sim::kSecond);
  });
  std::uint64_t bytes = 0;
  for (const auto& server : servers) {
    r.flood.server_packets.push_back(server->packetsReceived());
    bytes += server->bytesReceived();
  }
  r.goodput_mbps = 8.0 * static_cast<double>(bytes) / r.window_sim_s / 1e6;
  r.flood.events = r.events;
  r.flood.wire_packets = r.wire_packets;
  r.wall_s = secondsSince(start);
  return r;
}

// -- deter-tcp-iias -----------------------------------------------------------

constexpr int kDeterStreams = 20;
constexpr sim::Duration kDeterDuration = 5 * sim::kSecond;

UnitResult runDeterUnit(std::uint64_t seed, Recorder& rec) {
  UnitResult r;
  const Clock::time_point start = Clock::now();
  topo::WorldOptions options;
  options.seed = seed;
  auto world = setUp(r, rec, 60 * sim::kSecond,
                     [&] { return topo::makeDeterWorld(options); });
  if (!world) return r;
  cpu::Process& click = world->router("Fwdr")->clickProcess();
  // app::runIperfTcp would add a 2 s drain after the send window; the
  // measured window is the send window alone.
  app::IperfTcpServer server(world->stack("Sink"), 5001);
  app::IperfTcpClient client(world->stack("Src"), world->tapOf("Sink"), 5001,
                             kDeterStreams, {}, world->tapOf("Src"));
  const sim::Time t0 = world->queue.now();
  measureWindow(r, *world, rec, [&] {
    client.start(kDeterDuration);
    world->queue.runUntil(t0 + kDeterDuration);
  });
  r.goodput_mbps = 8.0 * static_cast<double>(server.bytesReceived()) /
                   sim::toSeconds(kDeterDuration) / 1e6;
  rec.time("check", [&] {
    r.deter.goodput_mbps = r.goodput_mbps;
    r.deter.click_cpu_share = static_cast<double>(click.consumedCpu()) /
                              static_cast<double>(kDeterDuration);
    r.failures = checkDeter(r.deter);
  });
  r.wall_s = secondsSince(start);
  return r;
}

// -- abilene-fig8-sweep -------------------------------------------------------

UnitResult runFig8Unit(std::uint64_t seed, Recorder& rec) {
  UnitResult r;
  const Clock::time_point start = Clock::now();
  obs::ScopedObs scope;
  topo::WorldOptions options;
  options.resources.cpu_reservation = 0.25;
  options.resources.realtime = true;
  options.contention = topo::kPlanetLabContention;
  options.seed = seed;
  auto world = setUp(r, rec, 180 * sim::kSecond,
                     [&] { return topo::makeAbileneWorld(options); });
  if (!world) return r;
  const sim::Time t0 = world->queue.now();

  scope.sampler().setPeriod(sim::kSecond / 2);
  scope.sampler().setOrigin(t0);
  scope.sampler().watch("app.ping", "Washington", "last_rtt_ms",
                        obs::MetricSampler::Mode::kOnChange);
  scope.sampler().attach(world->queue);

  app::Pinger::Options popt;
  popt.count = kFig8Probes;
  popt.flood = false;
  popt.interval = sim::fromSeconds(kFig8ProbeInterval);
  popt.source = world->tapOf("Washington");
  app::Pinger pinger(world->stack("Washington"), world->tapOf("Seattle"), popt);
  pinger.on_reply = [&r](std::uint64_t seq, sim::Duration rtt) {
    r.fig8.replies.emplace_back(seq, sim::toMillis(rtt));
  };
  world->schedule.at(t0 + sim::fromSeconds(kFig8FailAt),
                     "fail Denver-KansasCity",
                     [&] { world->iias->failLink("Denver", "KansasCity"); });
  world->schedule.at(t0 + sim::fromSeconds(kFig8RestoreAt),
                     "restore Denver-KansasCity",
                     [&] { world->iias->restoreLink("Denver", "KansasCity"); });
  measureWindow(r, *world, rec, [&] {
    pinger.start();
    world->queue.runUntil(t0 + sim::fromSeconds(kFig8RunFor));
  });
  scope.sampler().detach();

  r.fold_s = rec.time("obs.fold", [&] { scope.obs().foldShardLanes(); });
  r.export_s = rec.time("obs.export", [&] {
    std::ostringstream chrome, spans, timeline, series;
    obs::writeChromeTrace(chrome, scope.spans(), scope.timeline(),
                          scope.sampler());
    scope.spans().writeCsv(spans);
    scope.timeline().writeCsv(timeline);
    scope.sampler().writeCsv(series);
    r.export_bytes = chrome.str().size() + spans.str().size() +
                     timeline.str().size() + series.str().size();
  });
  r.spans = scope.spans().closed();
  rec.time("check", [&] {
    r.fig8.probes_sent = pinger.report().transmitted;
    r.fig8.spans_open = scope.spans().stillOpen();
    r.fig8.roots_open = scope.spans().rootsStillOpen();
    r.failures = checkFig8(r.fig8);
  });
  r.wall_s = secondsSince(start);
  return r;
}

// ---------------------------------------------------------------------------
// Workloads: one unit of work at the workload's settings, untraced and
// (for --trace 1) traced.

struct Workload {
  const char* name;
  std::uint64_t default_seed;
};

constexpr Workload kWorkloads[] = {
    {"abilene-udp-flood", 4711},
    {"deter-tcp-iias", 1000},
    {"abilene-fig8-sweep", 811},
};

/// Worker threads of abilene-udp-flood's parallel world: 4, capped at
/// the usable CPUs.
int floodThreads() { return std::min(4, usableCpus()); }

/// One unit: the untraced run whose numbers are the end-to-end metrics,
/// plus (traced) the same seed again with spans and the tag profile.
struct UnitRun {
  std::uint64_t seed = 0;
  UnitResult untraced;
  UnitResult traced;          // only with tracing
  UnitResult flood_parallel;  // abilene-udp-flood: untraced, floodThreads()
  bool has_traced = false;
  /// Reference job's time, averaged over its runs just before and just
  /// after the untraced world.
  double reference_s = kReferenceNominalS;

  /// Factor that turns the untraced world's times into seconds on the
  /// nominal host.
  double hostScale() const { return kReferenceNominalS / reference_s; }

  /// Every check failure of the unit, prefixed by the run it came from.
  std::vector<std::string> failures() const {
    std::vector<std::string> out = untraced.failures;
    for (const std::string& f : flood_parallel.failures) {
      out.push_back(std::to_string(floodThreads()) + " threads: " + f);
    }
    if (has_traced) {
      for (const std::string& f : traced.failures) out.push_back("traced: " + f);
    }
    return out;
  }
};

/// abilene-udp-flood's check: servers fed, and the simulation identical
/// to the untraced 1-thread world's (the sharded determinism contract).
void checkFloodUnit(UnitResult& r, const UnitResult& reference,
                    Recorder& rec) {
  rec.time("check", [&] {
    r.flood.reference_events = reference.events;
    r.flood.reference_wire_packets = reference.wire_packets;
    for (const std::string& f : checkFlood(r.flood)) r.failures.push_back(f);
  });
}

UnitRun runUnit(const std::string& workload, std::uint64_t seed,
                std::uint64_t unit_id, SpanLog* log) {
  UnitRun run;
  run.seed = seed;
  run.has_traced = log != nullptr;
  Recorder plain(nullptr, unit_id);
  Recorder traced(log, unit_id);
  auto bracketed = [&run](auto&& unit) {
    const double before = referenceSeconds();
    run.untraced = unit();
    run.reference_s = 0.5 * (before + referenceSeconds());
  };
  if (workload == "abilene-udp-flood") {
    // The end-to-end numbers come from the sharded engine at one thread.
    // At four threads on a shared 4-CPU host, every window waits for all
    // workers to be scheduled, and a neighbour's load stretched whole runs
    // 4x; the parallel world is timed only for shard.speedup_4t.
    bracketed([&] { return runFloodUnit(seed, 1, plain); });
    run.flood_parallel = runFloodUnit(seed, floodThreads(), plain);
    checkFloodUnit(run.flood_parallel, run.untraced, plain);
    if (log) {
      // Installing the profiling hook serialises the lanes, so the traced
      // run uses one thread too.
      traced.time("unit", [&] {
        run.traced = runFloodUnit(seed, 1, traced);
        checkFloodUnit(run.traced, run.untraced, traced);
      });
    }
  } else if (workload == "deter-tcp-iias") {
    bracketed([&] { return runDeterUnit(seed, plain); });
    if (log) traced.time("unit", [&] { run.traced = runDeterUnit(seed, traced); });
  } else {
    bracketed([&] { return runFig8Unit(seed, plain); });
    if (log) traced.time("unit", [&] { run.traced = runFig8Unit(seed, traced); });
  }
  return run;
}

/// Units attempted and failed: failed / attempted is the failed share.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> log;

  /// Counts one unit; returns whether it passed every check.
  bool record(const UnitRun& run) {
    ++attempted;
    const std::vector<std::string> failures = run.failures();
    for (const std::string& f : failures) {
      std::fprintf(stderr, "vinibench: seed %llu: %s\n",
                   static_cast<unsigned long long>(run.seed), f.c_str());
      log.push_back("seed " + std::to_string(run.seed) + ": " + f);
    }
    if (!failures.empty()) ++failed;
    return failures.empty();
  }
};

// ---------------------------------------------------------------------------
// Aggregation and output.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A metric's value is the median of its samples.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // one per unit (or one per run)

  double value() const { return quantile(samples, 0.5); }
};

class MetricTable {
 public:
  /// Appends one sample, creating the metric on first use.
  void add(const std::string& name, const std::string& unit, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.samples.push_back(value);
        return;
      }
    }
    metrics_.push_back({name, unit, {value}});
  }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %16.6g %-8s (n=%zu, p25 %.6g, p75 %.6g)\n",
                  m.name.c_str(), m.value(), m.unit.c_str(), m.samples.size(),
                  quantile(m.samples, 0.25), quantile(m.samples, 0.75));
    }
  }

  /// {"name": {"value": v, "unit": u}, ...} over every row.
  std::string resultJson() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
             jsonNumber(m.value()) + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
  }

  /// Every row, with its sample count and quantiles.
  std::string detailJson() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += "    " + jsonString(m.name) + ": {\"value\": " +
             jsonNumber(m.value()) + ", \"unit\": " + jsonString(m.unit) +
             ", \"samples\": " + std::to_string(m.samples.size()) +
             ", \"p10\": " + jsonNumber(quantile(m.samples, 0.1)) +
             ", \"p25\": " + jsonNumber(quantile(m.samples, 0.25)) +
             ", \"p50\": " + jsonNumber(quantile(m.samples, 0.5)) +
             ", \"p75\": " + jsonNumber(quantile(m.samples, 0.75)) +
             ", \"p90\": " + jsonNumber(quantile(m.samples, 0.9)) + "}" +
             (i + 1 == metrics_.size() ? "\n" : ",\n");
    }
    return out + "  }";
  }

 private:
  std::vector<Metric> metrics_;
};

/// End-to-end times of the untraced world, in seconds on the nominal host.
void addEndToEnd(MetricTable& t, const UnitRun& run) {
  const UnitResult& r = run.untraced;
  const double k = run.hostScale();
  t.add("wall_s", "s", r.wall_s * k);
  t.add("setup_s", "s", r.setup_s * k);
  t.add("sim_wall_ratio", "sim-s/s", r.simWallRatio() / k);
  t.add("cpu_per_sim_s", "cpu-s/sim-s",
        r.window_sim_s > 0 ? k * r.window_cpu_s / r.window_sim_s : 0.0);
  // The host's speed, and the wall time before scaling (table only).
  t.add("host.reference_ms", "ms", 1e3 * run.reference_s);
  t.add("host.raw_wall_s", "s", r.wall_s);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void addPerLayer(MetricTable& t, const UnitRun& run, bool flood) {
  const UnitResult& u = run.untraced;
  const UnitResult& tr = run.traced;
  // Counts and engine rates come from the untraced run at the workload's
  // own engine settings; wall-time splits from the traced run.
  t.add("topo.build_s", "s", tr.build_s);
  t.add("xorp.converge_s", "s", tr.converge_s);
  t.add("sim.window_s", "s", tr.window_wall_s);
  t.add("sim.events", "count", static_cast<double>(u.events));
  t.add("sim.events_per_s", "1/s",
        ratio(static_cast<double>(u.events), u.window_wall_s));
  t.add("sim.overhead_share", "ratio",
        ratio(tr.window_wall_s - 1e-9 * static_cast<double>(tr.handler_ns),
              tr.window_wall_s));
  t.add("sim.peak_pending", "count", static_cast<double>(u.peak_pending));
  t.add("sim.peak_storage", "count", static_cast<double>(u.peak_storage));
  t.add("sim.unattributed_share", "ratio",
        ratio(static_cast<double>(u.unattributed_events),
              static_cast<double>(u.events)));
  t.add("sim.cross_node_share", "ratio",
        ratio(static_cast<double>(u.cross_node_scheduled),
              static_cast<double>(u.cross_node_scheduled +
                                  u.same_node_scheduled)));
  if (flood) {
    t.add("shard.speedup_4t", "ratio",
          ratio(run.flood_parallel.simWallRatio(), u.simWallRatio()));
  }
  t.add("phys.wire_packets", "count", static_cast<double>(u.wire_packets));
  t.add("phys.events_per_packet", "ratio",
        ratio(static_cast<double>(u.events),
              static_cast<double>(u.wire_packets)));
  t.add("phys.drops", "count", static_cast<double>(u.drops));
  t.add("tcpip.goodput_mbps", "Mb/s", u.goodput_mbps);
  t.add("cpu.click_busy_share", "ratio", u.click_busy_share);
  if (tr.export_bytes > 0) {
    t.add("obs.fold_s", "s", tr.fold_s);
    t.add("obs.export_s", "s", tr.export_s);
  }
  t.add("obs.export_share", "ratio", ratio(tr.fold_s + tr.export_s, tr.wall_s));
  t.add("obs.export_bytes", "bytes", static_cast<double>(u.export_bytes));
  t.add("obs.spans", "count", static_cast<double>(u.spans));
  t.add("trace.overhead_share", "ratio",
        ratio(tr.window_wall_s - u.window_wall_s, u.window_wall_s));
  // Every tag the window executed.
  for (const auto& [tag, stat] : tr.tags) {
    const std::string prefix = "tag." + tag;
    t.add(prefix + ".events", "count", static_cast<double>(stat.events));
    t.add(prefix + ".ns_per_event", "ns",
          ratio(static_cast<double>(stat.wall_ns),
                static_cast<double>(stat.events)));
    t.add(prefix + ".time_share", "ratio",
          ratio(static_cast<double>(stat.wall_ns),
                static_cast<double>(tr.handler_ns)));
  }
}

bool writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

int runBenchmark(const Options& opt) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (!workload) {
    std::fprintf(stderr, "vinibench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const std::uint64_t base = opt.seed_given ? opt.seed : workload->default_seed;
  const bool flood = opt.workload == "abilene-udp-flood";
  std::printf("vinibench: workload %s, base seed %llu, %.0f s, trace %d\n",
              workload->name, static_cast<unsigned long long>(base),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("  fingerprint %s\n", fingerprintJson().c_str());
  if (flood) {
    std::printf("  engine threads 1; determinism partner at %d\n",
                floodThreads());
  }

  SpanLog spans;
  MetricTable table;
  Tally tally;
  const Clock::time_point start = Clock::now();
  while (tally.attempted == 0 || secondsSince(start) < opt.seconds) {
    const UnitRun run = runUnit(opt.workload, base + tally.attempted,
                                tally.attempted, opt.trace ? &spans : nullptr);
    if (!tally.record(run)) continue;
    if (opt.trace) {
      addPerLayer(table, run, flood);
    } else {
      addEndToEnd(table, run);
    }
  }
  if (!opt.trace) table.add("peak_rss_mb", "MiB", peakRssMb());

  std::printf("  %llu units, %llu failed, %.1f s\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), secondsSince(start));
  table.print();

  if (!opt.out_dir.empty()) {
    std::error_code ignored;  // a failed mkdir shows up as a failed write
    std::filesystem::create_directories(opt.out_dir, ignored);
    const std::string stem = opt.out_dir + "/" + workload->name + "-seed" +
                             std::to_string(base);
    const std::string results = stem + (opt.trace ? ".layers.json" : ".e2e.json");
    std::string failures_json = "[";
    for (std::size_t i = 0; i < tally.log.size(); ++i) {
      failures_json += (i ? ", " : "") + jsonString(tally.log[i]);
    }
    failures_json += "]";
    const std::string doc =
        "{\n  \"workload\": " + jsonString(workload->name) +
        ",\n  \"base_seed\": " + std::to_string(base) +
        ",\n  \"seconds\": " + jsonNumber(opt.seconds) +
        ",\n  \"trace\": " + (opt.trace ? "true" : "false") +
        ",\n  \"engine_threads\": " +
        std::to_string(flood ? 1 : topo::WorldOptions{}.threads) +
        (flood ? ",\n  \"parallel_threads\": " + std::to_string(floodThreads())
               : std::string()) +
        ",\n  \"fingerprint\": " + fingerprintJson() +
        ",\n  \"attempted\": " + std::to_string(tally.attempted) +
        ",\n  \"failed\": " + std::to_string(tally.failed) +
        ",\n  \"failures\": " + failures_json +
        ",\n  \"metrics\": " + table.detailJson() + "\n}\n";
    bool ok = writeFile(results, doc);
    if (opt.trace) {
      std::ostringstream chrome;
      spans.writeChromeTrace(chrome);
      ok = writeFile(stem + ".spans.json", chrome.str()) && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "vinibench: cannot write results to %s\n",
                   opt.out_dir.c_str());
      return 2;
    }
    std::printf("  results in %s\n", results.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              table.resultJson().c_str());
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test: one real unit of every workload must pass its check, and a
// copy of it carrying one deliberately wrong output must be counted as a
// failed unit by the same tally a benchmark run uses.

int selfTest() {
  int problems = 0;
  auto expect = [&problems](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++problems;
  };
  // `failures` are the check's verdict on a corrupted output of `run`.
  auto expectCounted = [&expect](UnitRun run, std::vector<std::string> failures,
                                 const std::string& what) {
    run.untraced.failures = std::move(failures);
    Tally tally;
    tally.record(run);
    expect(tally.attempted == 1 && tally.failed == 1, what);
  };
  SpanLog log;

  const UnitRun flood = runUnit("abilene-udp-flood", 4711, 0, &log);
  expect(flood.failures().empty(), "abilene-udp-flood seed 4711 passes");
  {
    FloodObservation o = flood.flood_parallel.flood;
    o.server_packets.back() = 0;
    expectCounted(flood, checkFlood(o), "flood: a silent iperf server fails");
    o = flood.flood_parallel.flood;
    o.events += 1;
    expectCounted(flood, checkFlood(o),
                  "flood: an event count off the 1-thread one fails");
    o = flood.flood_parallel.flood;
    o.wire_packets -= 1;
    expectCounted(flood, checkFlood(o),
                  "flood: a wire packet count off the 1-thread one fails");
  }

  const UnitRun deter = runUnit("deter-tcp-iias", 1000, 1, &log);
  expect(deter.failures().empty(), "deter-tcp-iias seed 1000 passes");
  {
    DeterObservation o = deter.untraced.deter;
    o.goodput_mbps = 946.0;  // Table 2's kernel-forwarding row
    expectCounted(deter, checkDeter(o), "deter: Network-row goodput fails");
    o = deter.untraced.deter;
    o.click_cpu_share = 0.5;
    expectCounted(deter, checkDeter(o), "deter: a half-idle Click fails");
    o = deter.untraced.deter;
    o.click_cpu_share = 1.4;  // 7 s of CPU billed to a 5 s window
    expectCounted(deter, checkDeter(o), "deter: Click CPU above the window fails");
  }

  const UnitRun fig8 = runUnit("abilene-fig8-sweep", 811, 2, &log);
  expect(fig8.failures().empty(), "abilene-fig8-sweep seed 811 passes");
  {
    const Fig8Observation& good = fig8.untraced.fig8;
    Fig8Observation o = good;
    o.replies.erase(o.replies.begin());  // probe 1, before the failure
    expectCounted(fig8, checkFig8(o), "fig8: a loss outside the outage fails");
    o = good;
    for (auto& reply : o.replies) reply.second += 25.0;
    expectCounted(fig8, checkFig8(o), "fig8: shifted RTT plateaus fail");
    o = good;
    o.replies.clear();
    for (std::uint64_t seq = 1; seq <= o.probes_sent; ++seq) {
      o.replies.emplace_back(seq, 71.5);
    }
    expectCounted(fig8, checkFig8(o), "fig8: no outage and no reroute fails");
    o = good;
    o.roots_open = 1;
    expectCounted(fig8, checkFig8(o), "fig8: an unclosed span fails");
  }

  std::printf("vinibench self-test: %s\n", problems ? "FAILED" : "passed");
  return problems ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vinibench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      opt.seed_given = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      std::fprintf(stderr,
                   "usage: vinibench --workload W [--seed N] [--seconds S] "
                   "[--trace 0|1] [--out DIR]\n"
                   "       vinibench --self-test\n");
      return 2;
    }
  }
  if (self_test) return selfTest();
  if (opt.workload.empty()) {
    std::fprintf(stderr, "vinibench: --workload is required\n");
    return 2;
  }
  return runBenchmark(opt);
}
