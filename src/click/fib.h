// The forwarding information base (FIB).
//
// Click's LookupIPRoute element consults this structure: a binary trie
// over IPv4 prefixes supporting longest-prefix-match at lookup cost
// O(prefix length).  Entries carry a next-hop gateway (a virtual
// interface address on a neighboring node, in IIAS) and an output port
// of the lookup element.  XORP's FEA programs this table (Section 4.2.1:
// "The forwarding table is initially empty and is populated by XORP").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
  Fib();
  ~Fib();

  Fib(const Fib&) = delete;
  Fib& operator=(const Fib&) = delete;

  /// Insert or replace the entry for `entry.prefix`.
  void addRoute(const FibEntry& entry);

  /// Remove the entry for exactly `prefix`; returns true if present.
  bool removeRoute(const packet::Prefix& prefix);

  /// Longest-prefix match: the most specific entry covering `dst`, or
  /// null.  The pointer is valid until the table is next modified.
  const FibEntry* lookup(packet::IpAddress dst) const;

  /// Visit every installed entry (order: trie preorder).
  void forEach(const std::function<void(const FibEntry&)>& visit) const;

  std::size_t size() const { return size_; }
  void clear();

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::optional<FibEntry> entry;
  };

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace vini::click
