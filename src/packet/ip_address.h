// IPv4 addresses and prefixes.
//
// Every address in the system — underlay node addresses, the 10.0.0.0/8
// private space the paper assigns to each slice's overlay, the /30 subnets
// numbering virtual link endpoints — is an IpAddress, and routing operates
// on Prefix (address + mask length) with longest-prefix-match semantics.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace vini::packet {

/// An IPv4 address in host byte order.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr explicit IpAddress(std::uint32_t value) : value_(value) {}
  constexpr IpAddress(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Parse dotted-quad notation; returns nullopt on malformed input.
  static std::optional<IpAddress> parse(const std::string& text);

  /// Parse dotted-quad notation; throws std::invalid_argument on error.
  /// Convenience for literals in topology definitions.
  static IpAddress mustParse(const std::string& text);

  constexpr std::uint32_t value() const { return value_; }
  constexpr bool isZero() const { return value_ == 0; }

  std::string str() const;

  auto operator<=>(const IpAddress&) const = default;

 private:
  std::uint32_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, IpAddress addr);

/// An IPv4 prefix: address plus mask length (0-32).
class Prefix {
 public:
  constexpr Prefix() = default;
  Prefix(IpAddress addr, int length);

  /// Parse "a.b.c.d/len"; returns nullopt on malformed input.
  static std::optional<Prefix> parse(const std::string& text);
  static Prefix mustParse(const std::string& text);

  /// The default route 0.0.0.0/0.
  static constexpr Prefix defaultRoute() { return Prefix{}; }

  IpAddress address() const { return addr_; }
  int length() const { return length_; }
  std::uint32_t mask() const;

  /// True if `addr` falls inside this prefix.
  bool contains(IpAddress addr) const;

  /// True if `other` is fully contained in this prefix.
  bool covers(const Prefix& other) const;

  /// The n-th host address within the prefix (n=0 is the network address).
  IpAddress hostAt(std::uint32_t n) const;

  std::string str() const;

  auto operator<=>(const Prefix&) const = default;

 private:
  IpAddress addr_;  // stored canonicalized: host bits zeroed
  int length_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Prefix& p);

/// A set of a few addresses (a host's or a router's own, the tunnel
/// endpoints a filter blocks), looked up per packet.  A flat vector
/// searched linearly beats a tree at this size.  Nothing may depend on
/// the order the addresses are kept in, so there is no iteration.
class AddressSet {
 public:
  /// Add `addr`; adding it again changes nothing.
  void insert(IpAddress addr) {
    if (!contains(addr)) addrs_.push_back(addr);
  }
  void erase(IpAddress addr) { std::erase(addrs_, addr); }
  void clear() { addrs_.clear(); }
  bool contains(IpAddress addr) const {
    return std::find(addrs_.begin(), addrs_.end(), addr) != addrs_.end();
  }

 private:
  std::vector<IpAddress> addrs_;
};

}  // namespace vini::packet

template <>
struct std::hash<vini::packet::IpAddress> {
  std::size_t operator()(vini::packet::IpAddress a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<vini::packet::Prefix> {
  std::size_t operator()(const vini::packet::Prefix& p) const noexcept {
    return std::hash<std::uint32_t>{}(p.address().value()) * 33 +
           static_cast<std::size_t>(p.length());
  }
};
