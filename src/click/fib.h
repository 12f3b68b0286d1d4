// The forwarding information base (FIB).
//
// Click's LookupIPRoute element consults this structure.  It keeps one
// exact-match hash table per populated prefix length, keyed by the
// masked address; longest-prefix match probes the populated lengths from
// the longest down, so a lookup costs one hash probe per populated
// length.  An IIAS FIB holds only /30 virtual-link subnets and /32 tap
// addresses, so that is two probes whatever the table size, and an
// insert or removal touches one table.  Entries carry a next-hop gateway
// (a virtual interface address on a neighboring node, in IIAS) and an
// output port of the lookup element.  XORP's FEA programs this table
// (Section 4.2.1: "The forwarding table is initially empty and is
// populated by XORP").
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "packet/ip_address.h"

namespace vini::click {

struct FibEntry {
  packet::Prefix prefix;
  packet::IpAddress next_hop;  ///< zero = directly connected / local
  int port = 0;                ///< output port of the lookup element
};

class Fib {
 public:
  Fib() = default;

  Fib(const Fib&) = delete;
  Fib& operator=(const Fib&) = delete;

  /// Insert or replace the entry for `entry.prefix`.
  void addRoute(const FibEntry& entry);

  /// Remove the entry for exactly `prefix`; returns true if present.
  bool removeRoute(const packet::Prefix& prefix);

  /// Longest-prefix match: the most specific entry covering `dst`, or
  /// null.  The pointer is valid until the table is next modified.
  const FibEntry* lookup(packet::IpAddress dst) const;

  /// Visit every installed entry in (address, length) order — the
  /// preorder of a binary trie over the prefixes, which migration
  /// checkpoints are written in.
  void forEach(const std::function<void(const FibEntry&)>& visit) const;

  std::size_t size() const { return size_; }
  void clear();

 private:
  /// The entries of one prefix length, keyed by masked address: open
  /// addressing with linear probing over a power-of-two slot array that
  /// is kept at most half full, so a probe is a multiply, a shift and
  /// usually one slot.
  class Table {
   public:
    const FibEntry* find(std::uint32_t key) const;
    /// Returns true if the key was new.
    bool insertOrAssign(const FibEntry& entry);
    bool erase(std::uint32_t key);
    bool empty() const { return size_ == 0; }
    void clear();
    void appendTo(std::vector<const FibEntry*>& out) const;

   private:
    struct Slot {
      FibEntry entry;
      bool used = false;
    };
    /// Index of `key`'s slot, or of the free slot ending its probe run.
    std::size_t probe(std::uint32_t key) const;
    std::size_t home(std::uint32_t key) const;
    void grow();

    std::vector<Slot> slots_;
    int bits_ = 0;  ///< slots_.size() == 1 << bits_ once allocated
    std::size_t size_ = 0;
  };

  std::array<Table, 33> by_length_;
  /// Bit L is set while by_length_[L] holds an entry.
  std::uint64_t populated_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vini::click
