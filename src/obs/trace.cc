#include "obs/trace.h"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/export_writer.h"
#include "obs/lane_merge.h"
#include "sim/event_queue.h"

namespace vini::obs {

const char* traceEventName(TraceEvent ev) {
  switch (ev) {
    case TraceEvent::kIngress:
      return "ingress";
    case TraceEvent::kEnqueue:
      return "enqueue";
    case TraceEvent::kQueueDrop:
      return "queue_drop";
    case TraceEvent::kSerializeStart:
      return "serialize_start";
    case TraceEvent::kDeliver:
      return "deliver";
    case TraceEvent::kForwardDecision:
      return "forward_decision";
    case TraceEvent::kLossDrop:
      return "loss_drop";
    case TraceEvent::kDownDrop:
      return "down_drop";
    case TraceEvent::kSocketDrop:
      return "socket_drop";
  }
  return "?";
}

PacketTracer::PacketTracer(std::size_t capacity)
    : capacity_(capacity ? capacity : 1) {}

namespace {

const std::string& lookup(const std::vector<std::string>& table,
                          std::int16_t id) {
  static const std::string kUnknown = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= table.size()) return kUnknown;
  return table[static_cast<std::size_t>(id)];
}

}  // namespace

std::int16_t PacketTracer::intern(
    std::vector<std::string>& names,
    std::unordered_map<std::string, std::int16_t>& index,
    const std::string& name) {
  if (auto it = index.find(name); it != index.end()) return it->second;
  if (names.size() >= 0x7fff) throw std::length_error("tracer name table full");
  const auto id = static_cast<std::int16_t>(names.size());
  names.push_back(name);
  index.emplace(name, id);
  return id;
}

std::int16_t PacketTracer::internNode(const std::string& name) {
  shard_.assertHeld();
  return intern(node_names_, node_index_, name);
}

std::int16_t PacketTracer::internLink(const std::string& name) {
  shard_.assertHeld();
  return intern(link_names_, link_index_, name);
}

const std::string& PacketTracer::nodeName(std::int16_t id) const {
  shard_.assertHeld();
  return lookup(node_names_, id);
}

const std::string& PacketTracer::linkName(std::int16_t id) const {
  shard_.assertHeld();
  return lookup(link_names_, id);
}

void PacketTracer::record(const TraceRecord& rec) {
  if (!lane_records_.empty()) {
    const int lane = sim::EventQueue::currentShardLane();
    const std::size_t main = lane_records_.size() - 1;
    lane_records_[lane >= 0 && static_cast<std::size_t>(lane) < main
                      ? static_cast<std::size_t>(lane)
                      : main]
        .push_back(rec);
    return;
  }
  commit(rec);
}

void PacketTracer::commit(const TraceRecord& rec) {
  shard_.assertHeld();
  if (records_.size() < capacity_) {
    records_.push_back(rec);
  } else {
    records_[static_cast<std::size_t>(total_ % capacity_)] = rec;
  }
  ++total_;
  ++kind_totals_[static_cast<std::size_t>(rec.event)];
}

void PacketTracer::enableShardLanes(std::size_t lanes) {
  shard_.assertHeld();
  if (!lane_records_.empty()) {
    throw std::logic_error("obs: tracer shard lanes already enabled");
  }
  if (lanes == 0) {
    throw std::logic_error("obs: tracer enableShardLanes() with no lanes");
  }
  lane_records_.resize(lanes + 1);  // + the main pseudo-lane
}

void PacketTracer::foldShardLanes() {
  shard_.assertHeld();
  const auto order = laneTimeOrder(
      lane_records_.size(),
      [this](std::size_t l) -> const auto& { return lane_records_[l]; });
  for (const LaneSlot& s : order) commit(lane_records_[s.lane][s.idx]);
  for (auto& buf : lane_records_) buf.clear();
}

std::size_t PacketTracer::size() const {
  shard_.assertHeld();
  return records_.size();
}

bool PacketTracer::wrapped() const {
  shard_.assertHeld();
  return total_ > capacity_;
}

void PacketTracer::requireFolded(const char* accessor) const {
  shard_.assertHeld();
  if (hasUnfoldedLaneOps()) {
    throw std::logic_error(std::string("obs: PacketTracer::") + accessor +
                           " before Obs::foldShardLanes()");
  }
}

std::vector<TraceRecord> PacketTracer::snapshot() const {
  requireFolded("snapshot()");
  // Once the ring wrapped, the oldest survivor sits in the slot the next
  // record would overwrite.
  const auto start = static_cast<std::ptrdiff_t>(
      wrapped() ? static_cast<std::size_t>(total_ % capacity_) : 0);
  std::vector<TraceRecord> out(records_.begin() + start, records_.end());
  out.insert(out.end(), records_.begin(), records_.begin() + start);
  return out;
}

void PacketTracer::clear() {
  shard_.assertHeld();
  records_.clear();
  total_ = 0;
  kind_totals_.fill(0);
  for (auto& buf : lane_records_) buf.clear();
}

bool PacketTracer::hasUnfoldedLaneOps() const {
  for (const auto& buf : lane_records_) {
    if (!buf.empty()) return true;
  }
  return false;
}

void PacketTracer::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  const std::vector<TraceRecord> records = snapshot();
  ExportWriter w(os);
  w.put("t_ns,event,node,link,src,dst,flow,seq,bytes\n");
  for (const TraceRecord& r : records) {
    w.putInt(r.t).put(',').put(traceEventName(r.event)).put(',');
    w.put(nodeName(r.node)).put(',').put(linkName(r.link)).put(',');
    w.putInt(r.src).put(',').putInt(r.dst).put(',').putInt(r.flow).put(',');
    w.putInt(r.seq).put(',').putInt(r.bytes).put('\n');
  }
  w.flush();
}

namespace {

template <typename T>
void putLe(std::ostream& os, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    os.put(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                             0xff));
  }
}

template <typename T>
T getLe(std::istream& is) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int c = is.get();
    if (c < 0) throw std::runtime_error("vini_trace: truncated stream");
    v |= static_cast<std::uint64_t>(c & 0xff) << (8 * i);
  }
  return static_cast<T>(v);
}

void putString(std::ostream& os, const std::string& s) {
  putLe<std::uint16_t>(os, static_cast<std::uint16_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string getString(std::istream& is) {
  const auto len = getLe<std::uint16_t>(is);
  std::string s(len, '\0');
  is.read(s.data(), len);
  if (!is) throw std::runtime_error("vini_trace: truncated string table");
  return s;
}

void putNameTable(std::ostream& os, const std::vector<std::string>& table) {
  putLe<std::uint16_t>(os, static_cast<std::uint16_t>(table.size()));
  for (const std::string& s : table) putString(os, s);
}

std::vector<std::string> getNameTable(std::istream& is) {
  const auto n = getLe<std::uint16_t>(is);
  std::vector<std::string> table;
  table.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) table.push_back(getString(is));
  return table;
}

}  // namespace

void PacketTracer::writeBinary(std::ostream& os) const {
  shard_.assertHeld();
  const auto records = snapshot();
  os.write("VTRC", 4);
  putLe<std::uint16_t>(os, kBinaryVersion);
  putLe<std::uint16_t>(os, static_cast<std::uint16_t>(kBinaryRecordSize));
  putLe<std::uint64_t>(os, records.size());
  for (const TraceRecord& r : records) {
    putLe<std::int64_t>(os, r.t);
    os.put(static_cast<char>(r.event));
    putLe<std::int16_t>(os, r.node);
    putLe<std::int16_t>(os, r.link);
    putLe<std::uint32_t>(os, r.src);
    putLe<std::uint32_t>(os, r.dst);
    putLe<std::uint64_t>(os, r.flow);
    putLe<std::uint64_t>(os, r.seq);
    putLe<std::uint32_t>(os, r.bytes);
  }
  putNameTable(os, node_names_);
  putNameTable(os, link_names_);
}

PacketTracer::BinaryDump PacketTracer::readBinary(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != "VTRC") {
    throw std::runtime_error("vini_trace: bad magic (not a VTRC file)");
  }
  const auto version = getLe<std::uint16_t>(is);
  if (version != kBinaryVersion) {
    throw std::runtime_error("vini_trace: unsupported version " +
                             std::to_string(version));
  }
  const auto record_size = getLe<std::uint16_t>(is);
  if (record_size != kBinaryRecordSize) {
    throw std::runtime_error("vini_trace: unexpected record size " +
                             std::to_string(record_size));
  }
  const auto count = getLe<std::uint64_t>(is);
  BinaryDump dump;
  dump.records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.t = getLe<std::int64_t>(is);
    const int ev = is.get();
    if (ev < 0 || static_cast<std::size_t>(ev) >= kTraceEventKinds) {
      throw std::runtime_error("vini_trace: bad event kind");
    }
    r.event = static_cast<TraceEvent>(ev);
    r.node = getLe<std::int16_t>(is);
    r.link = getLe<std::int16_t>(is);
    r.src = getLe<std::uint32_t>(is);
    r.dst = getLe<std::uint32_t>(is);
    r.flow = getLe<std::uint64_t>(is);
    r.seq = getLe<std::uint64_t>(is);
    r.bytes = getLe<std::uint32_t>(is);
    dump.records.push_back(r);
  }
  dump.node_names = getNameTable(is);
  dump.link_names = getNameTable(is);
  return dump;
}

}  // namespace vini::obs
