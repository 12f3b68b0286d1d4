// The packet tracer.
//
// Records packet lifecycle events — ingress at a host, enqueue on a
// link, drop-tail drop, serialization start, local delivery, forwarding
// decision — with the simulated timestamp of each hop, into a
// fixed-capacity ring buffer.  When the ring wraps, the oldest records
// are overwritten but the per-event running totals keep counting, so
// drop totals still reconcile with the metrics registry (and the V102
// byte audit) after arbitrarily long runs.
//
// Records can be exported as CSV or as a minimal pcap-like binary
// format ("VTRC") that tools/vini_trace can dump and filter offline.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/time.h"

namespace vini::obs {

enum class TraceEvent : std::uint8_t {
  kIngress = 0,          // host stack received a frame from the wire
  kEnqueue = 1,          // frame accepted into a link's drop-tail queue
  kQueueDrop = 2,        // drop-tail: queue full
  kSerializeStart = 3,   // frame starts serializing onto the wire
  kDeliver = 4,          // delivered to a local socket / protocol
  kForwardDecision = 5,  // host stack chose an output route for the frame
  kLossDrop = 6,         // random loss model dropped the frame
  kDownDrop = 7,         // link was administratively/physically down
  kSocketDrop = 8,       // receive socket buffer overflowed
};
inline constexpr std::size_t kTraceEventKinds = 9;

const char* traceEventName(TraceEvent ev);

/// One lifecycle event.  Node and link are small integer ids (the
/// tracer keeps an id→name table so exports stay human-readable);
/// -1 means "not applicable".
struct TraceRecord {
  sim::Time t = 0;
  TraceEvent event = TraceEvent::kIngress;
  std::int16_t node = -1;
  std::int16_t link = -1;
  std::uint32_t src = 0;   // IPv4 source, host byte order
  std::uint32_t dst = 0;   // IPv4 destination
  std::uint64_t flow = 0;  // flow hash / connection id (0 when unknown)
  std::uint64_t seq = 0;   // app or transport sequence (0 when unknown)
  std::uint32_t bytes = 0;
};

class PacketTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit PacketTracer(std::size_t capacity = kDefaultCapacity);

  /// Intern a node/link name, returning the small id used in records.
  /// Re-interning the same name returns the same id.  Throws
  /// std::length_error once a table holds 0x7fff names (ids are int16).
  std::int16_t internNode(const std::string& name);
  std::int16_t internLink(const std::string& name);

  const std::string& nodeName(std::int16_t id) const;
  const std::string& linkName(std::int16_t id) const;

  void record(const TraceRecord& rec);

  // -- Shard lanes (parallel engine) ----------------------------------------

  /// Arm per-lane record buffers for the sharded engine: a record()
  /// issued from inside a worker lane (sim::EventQueue::currentShardLane()
  /// >= 0) is appended to its lane's private buffer, and one issued from
  /// the main thread to a trailing main pseudo-lane, instead of the
  /// shared ring.  foldShardLanes() later replays every buffer into the
  /// ring in (t, lane, emit-order) order (obs/lane_merge.h) — a pure
  /// function of the event stream, so exports stay byte-identical across
  /// thread counts and the ring keeps the latest records once it wraps.
  /// Call after construction-time interning, before the run.
  void enableShardLanes(std::size_t lanes);
  std::size_t shardLaneCount() const {
    return lane_records_.empty() ? 0 : lane_records_.size() - 1;
  }
  /// Merge every lane buffer into the shared ring (kind totals assigned
  /// exactly as a serial recorder would).  Main-thread only, lanes
  /// quiescent; idempotent.  Must run before any read-side call that
  /// should see records made while lanes were armed.
  void foldShardLanes();

  // -- Read side ------------------------------------------------------------

  /// Total events recorded since construction (keeps counting after the
  /// ring wraps).  Throws std::logic_error while lane buffers hold
  /// unfolded records, as eventCount() does.
  std::uint64_t totalRecorded() const {
    requireFolded("totalRecorded()");
    return total_;
  }
  /// Running per-kind totals — these survive ring overflow, which is
  /// what makes drop reconciliation exact on long runs.
  std::uint64_t eventCount(TraceEvent ev) const {
    requireFolded("eventCount()");
    return kind_totals_[static_cast<std::size_t>(ev)];
  }
  /// Number of records currently held (<= capacity).
  std::size_t size() const;
  /// Capacity of the ring.
  std::size_t capacity() const {
    shard_.assertHeld();
    return capacity_;
  }
  bool wrapped() const;

  /// Records in recording order, oldest surviving first.  Throws
  /// std::logic_error while lane buffers hold unfolded records.
  std::vector<TraceRecord> snapshot() const;

  void clear();

  // -- Export ---------------------------------------------------------------

  /// True while lane buffers hold records foldShardLanes() has not
  /// merged yet; snapshot(), the counters and the exports throw
  /// std::logic_error then.
  bool hasUnfoldedLaneOps() const;

  /// "t_ns,event,node,link,src,dst,flow,seq,bytes" with names resolved.
  void writeCsv(std::ostream& os) const;

  /// Minimal pcap-like binary format:
  ///   magic "VTRC" | u16 version | u16 record_size | u64 count
  ///   then `count` fixed-size little-endian records
  ///   then the node and link name tables (u16 count, then
  ///   length-prefixed strings) so a dump is self-describing.
  void writeBinary(std::ostream& os) const;

  struct BinaryDump {
    std::vector<TraceRecord> records;
    std::vector<std::string> node_names;
    std::vector<std::string> link_names;
  };
  /// Parse a writeBinary() stream; throws std::runtime_error on a
  /// malformed header.
  static BinaryDump readBinary(std::istream& is);

  static constexpr std::uint16_t kBinaryVersion = 1;
  static constexpr std::size_t kBinaryRecordSize = 41;

 private:
  /// Throws std::logic_error naming `accessor` while lane buffers hold
  /// records foldShardLanes() has not merged: a count read then would
  /// silently miss them.
  void requireFolded(const char* accessor) const
      VINI_ASSERT_CAPABILITY(shard_);
  /// Append to the ring: the one write path, serial and fold alike.
  void commit(const TraceRecord& rec);
  std::int16_t intern(std::vector<std::string>& names,
                      std::unordered_map<std::string, std::int16_t>& index,
                      const std::string& name) VINI_REQUIRES(shard_);

  core::ShardToken shard_;
  std::size_t capacity_ VINI_GUARDED_BY(shard_);
  /// The ring: grows to capacity_, then record total_ overwrites slot
  /// total_ % capacity_.
  std::vector<TraceRecord> records_ VINI_GUARDED_BY(shard_);
  /// Total records ever committed.
  std::uint64_t total_ VINI_GUARDED_BY(shard_) = 0;
  std::array<std::uint64_t, kTraceEventKinds> kind_totals_
      VINI_GUARDED_BY(shard_){};
  std::vector<std::string> node_names_ VINI_GUARDED_BY(shard_);
  std::vector<std::string> link_names_ VINI_GUARDED_BY(shard_);
  std::unordered_map<std::string, std::int16_t> node_index_
      VINI_GUARDED_BY(shard_);
  std::unordered_map<std::string, std::int16_t> link_index_
      VINI_GUARDED_BY(shard_);
  /// Per-lane record buffers plus the trailing main pseudo-lane
  /// (enableShardLanes sizes this to lanes + 1; empty = lanes off).
  /// Each lane buffer is written only by the thread executing that lane
  /// inside a window, the main pseudo-lane only by the main thread, and
  /// all are drained by the main thread at foldShardLanes(); rounds are
  /// separated by the pool barrier, so access never races.  The outer
  /// vector is sized once, before the run.
  std::vector<std::vector<TraceRecord>> lane_records_;
};

}  // namespace vini::obs
