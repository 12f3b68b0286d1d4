#include "click/fib.h"

#include <algorithm>
#include <bit>

namespace vini::click {

namespace {

std::uint32_t keyOf(const packet::Prefix& prefix) {
  return prefix.address().value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Fib::Table

std::size_t Fib::Table::home(std::uint32_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  return static_cast<std::size_t>(
      (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> (64 - bits_));
}

std::size_t Fib::Table::probe(std::uint32_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].used && keyOf(slots_[i].entry.prefix) != key) {
    i = (i + 1) & mask;
  }
  return i;
}

const FibEntry* Fib::Table::find(std::uint32_t key) const {
  if (size_ == 0) return nullptr;
  const Slot& slot = slots_[probe(key)];
  return slot.used ? &slot.entry : nullptr;
}

bool Fib::Table::insertOrAssign(const FibEntry& entry) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  Slot& slot = slots_[probe(keyOf(entry.prefix))];
  const bool inserted = !slot.used;
  slot.entry = entry;
  slot.used = true;
  if (inserted) ++size_;
  return inserted;
}

bool Fib::Table::erase(std::uint32_t key) {
  if (size_ == 0) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = probe(key);
  if (!slots_[hole].used) return false;
  // Backward-shift deletion: pull later members of the probe run into
  // the hole unless that would move one before its home slot.
  for (std::size_t next = (hole + 1) & mask; slots_[next].used;
       next = (next + 1) & mask) {
    const std::size_t want = home(keyOf(slots_[next].entry.prefix));
    if (((next - want) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].used = false;
  --size_;
  return true;
}

void Fib::Table::clear() {
  slots_.clear();
  bits_ = 0;
  size_ = 0;
}

void Fib::Table::grow() {
  std::vector<Slot> old = std::move(slots_);
  bits_ = std::max(bits_ + 1, 3);
  slots_.assign(std::size_t{1} << bits_, Slot{});
  for (const Slot& slot : old) {
    if (slot.used) slots_[probe(keyOf(slot.entry.prefix))] = slot;
  }
}

void Fib::Table::appendTo(std::vector<const FibEntry*>& out) const {
  for (const Slot& slot : slots_) {
    if (slot.used) out.push_back(&slot.entry);
  }
}

// ---------------------------------------------------------------------------
// Fib

void Fib::addRoute(const FibEntry& entry) {
  const int len = entry.prefix.length();
  if (by_length_[len].insertOrAssign(entry)) {
    ++size_;
    populated_ |= std::uint64_t{1} << len;
  }
}

bool Fib::removeRoute(const packet::Prefix& prefix) {
  const int len = prefix.length();
  Table& table = by_length_[len];
  if (!table.erase(keyOf(prefix))) return false;
  --size_;
  if (table.empty()) populated_ &= ~(std::uint64_t{1} << len);
  return true;
}

const FibEntry* Fib::lookup(packet::IpAddress dst) const {
  for (std::uint64_t left = populated_; left != 0;) {
    const int len = 63 - std::countl_zero(left);
    left &= ~(std::uint64_t{1} << len);
    // The top `len` bits of dst (none for the default route).
    const auto key = static_cast<std::uint32_t>(
        dst.value() & (~std::uint64_t{0} << (32 - len)));
    if (const FibEntry* entry = by_length_[len].find(key)) return entry;
  }
  return nullptr;
}

void Fib::forEach(const std::function<void(const FibEntry&)>& visit) const {
  std::vector<const FibEntry*> entries;
  entries.reserve(size_);
  for (const Table& table : by_length_) table.appendTo(entries);
  std::sort(entries.begin(), entries.end(),
            [](const FibEntry* a, const FibEntry* b) {
              return a->prefix < b->prefix;
            });
  for (const FibEntry* entry : entries) visit(*entry);
}

void Fib::clear() {
  for (Table& table : by_length_) table.clear();
  populated_ = 0;
  size_ = 0;
}

}  // namespace vini::click
