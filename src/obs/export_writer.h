// The one text-formatting path behind every obs export (Chrome trace
// JSON and the spans/timeline/series/metrics/trace CSVs).
//
// An ExportWriter appends into a single buffer and hands it to the
// caller's std::ostream whenever it fills (kChunk bytes) and at the
// final flush(), so a record costs memcpys and std::to_chars calls —
// no per-field stream insertion, no temporary strings.  The formats
// are part of the export contract; tests/golden/obs_export pins them:
//
//  * integers: decimal, as `os << n` with default flags;
//  * putMicros: virtual-time ns as fixed-point µs, "%lld.%03lld" of
//    (ns / 1000, ns % 1000) — negative inputs included ("-1.-500");
//  * putG6: printf "%.6g", which is also how a default-formatted
//    ostream prints a double (series values, gauges, histograms).
//
// JSON escaping is done once per name, not per record: jsonEscaped()
// renders a name and the exporter keeps the escaped copies in
// id-indexed tables.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

namespace vini::obs {

class ExportWriter {
 public:
  explicit ExportWriter(std::ostream& os)
      : os_(os), buf_(new char[kChunk + kMaxNumber]) {}

  ExportWriter& put(char c) {
    if (len_ >= kChunk) flush();
    buf_[len_++] = c;
    return *this;
  }

  ExportWriter& put(std::string_view s) {
    if (len_ + s.size() > kChunk) {
      flush();
      if (s.size() > kChunk) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    s.copy(buf_.get() + len_, s.size());
    len_ += s.size();
    return *this;
  }

  template <std::integral T>
  ExportWriter& putInt(T v) {
    makeRoom();
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_.get() + len_, buf_.get() + len_ + kMaxNumber, v)
            .ptr -
        buf_.get());
    return *this;
  }

  ExportWriter& putMicros(std::int64_t ns) {
    const std::int64_t frac = ns % 1000;  // same sign as ns
    const std::int64_t mag = frac < 0 ? -frac : frac;
    putInt(ns / 1000);
    makeRoom();
    char* p = buf_.get() + len_;
    *p++ = '.';
    if (frac < 0) {
      // "%03lld" pads to three characters, the minus sign among them.
      *p++ = '-';
      if (mag >= 100) *p++ = static_cast<char>('0' + mag / 100);
    } else {
      *p++ = static_cast<char>('0' + mag / 100);
    }
    *p++ = static_cast<char>('0' + mag / 10 % 10);
    *p++ = static_cast<char>('0' + mag % 10);
    len_ = static_cast<std::size_t>(p - buf_.get());
    return *this;
  }

  ExportWriter& putG6(double v) {
    makeRoom();
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_.get() + len_, buf_.get() + len_ + kMaxNumber, v,
                      std::chars_format::general, 6)
            .ptr -
        buf_.get());
    return *this;
  }

  /// Hand everything buffered so far to the stream.  Writers call it
  /// once at the end; nothing flushes implicitly, so an export that
  /// throws midway leaves at most the chunks already handed over.
  void flush() {
    if (len_ == 0) return;
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{64} << 10;
  /// Room for any one formatted number: an int64 takes 20 bytes,
  /// "%.6g" of a double at most 13 ("-1.23457e-308").
  static constexpr std::size_t kMaxNumber = 32;

  /// Numbers are formatted in place: past kChunk, flush first so the
  /// kMaxNumber bytes of slack behind it are free.
  void makeRoom() {
    if (len_ > kChunk) flush();
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

/// The body of a JSON string literal for `s` (quotes not included):
/// '"', '\\', '\n' and '\t' get two-character escapes, every other
/// byte below 0x20 a \u00XX escape, and all other bytes pass through.
inline std::string jsonEscaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace vini::obs
