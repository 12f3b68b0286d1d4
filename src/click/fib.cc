#include "click/fib.h"

namespace vini::click {

Fib::Fib() : root_(std::make_unique<Node>()) {}
Fib::~Fib() = default;

void Fib::addRoute(const FibEntry& entry) {
  Node* node = root_.get();
  const std::uint32_t addr = entry.prefix.address().value();
  for (int depth = 0; depth < entry.prefix.length(); ++depth) {
    const int bit = (addr >> (31 - depth)) & 1;
    if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
    node = node->child[bit].get();
  }
  if (!node->entry) ++size_;
  node->entry = entry;
}

bool Fib::removeRoute(const packet::Prefix& prefix) {
  Node* node = root_.get();
  const std::uint32_t addr = prefix.address().value();
  for (int depth = 0; depth < prefix.length(); ++depth) {
    const int bit = (addr >> (31 - depth)) & 1;
    if (!node->child[bit]) return false;
    node = node->child[bit].get();
  }
  if (!node->entry) return false;
  node->entry.reset();
  --size_;
  return true;
}

const FibEntry* Fib::lookup(packet::IpAddress dst) const {
  const std::uint32_t addr = dst.value();
  const Node* node = root_.get();
  const FibEntry* best = node->entry ? &*node->entry : nullptr;
  for (int depth = 0; depth < 32 && node; ++depth) {
    const int bit = (addr >> (31 - depth)) & 1;
    node = node->child[bit].get();
    if (node && node->entry) best = &*node->entry;
  }
  return best;
}

void Fib::forEach(const std::function<void(const FibEntry&)>& visit) const {
  // Iterative preorder traversal.
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->entry) visit(*node->entry);
    if (node->child[1]) stack.push_back(node->child[1].get());
    if (node->child[0]) stack.push_back(node->child[0].get());
  }
}

void Fib::clear() {
  root_ = std::make_unique<Node>();
  size_ = 0;
}

}  // namespace vini::click
