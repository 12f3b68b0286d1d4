// The Click element model.
//
// A modular router is a directed graph of Elements connected by ports
// (Kohler et al., "The Click modular router").  This implementation uses
// push processing throughout: an upstream element calls push() on its
// downstream neighbor; elements with internal queues (Shaper) drain on
// timers.  Elements are instantiated by class name through a registry so
// that router graphs can be written in (a subset of) the Click
// configuration language and generated by tools — the paper's experiment
// machinery "automatically generates the necessary XORP and Click
// configurations" from real router configs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/scheduler.h"
#include "packet/packet.h"
#include "sim/event_queue.h"
#include "tcpip/host_stack.h"

namespace vini::click {

class RouterGraph;

/// Per-packet CPU cost model of the user-space forwarder.  The values
/// are expressed for the reference machine; they model the syscall
/// overhead the paper measured with strace ("for each packet forwarded,
/// Click calls poll, recvfrom, and sendto once, and gettimeofday three
/// times, with an estimated cost of 5us per call") plus copy costs.
struct ClickCostModel {
  /// Six syscalls at ~5us each.
  sim::Duration per_packet_fixed = 30 * sim::kMicrosecond;
  /// Kernel/user copies, checksums, classification: per payload byte.
  double per_byte_ns = 15.0;

  sim::Duration cost(std::size_t bytes) const {
    return per_packet_fixed +
           static_cast<sim::Duration>(per_byte_ns * static_cast<double>(bytes));
  }
};

/// Everything an element may need at configure time.
struct ClickContext {
  tcpip::HostStack* stack = nullptr;   ///< the node's kernel
  cpu::Process* process = nullptr;     ///< the Click process (CPU model)
  sim::EventQueue* queue = nullptr;
  ClickCostModel costs;
  /// Owning slice (for VNET-style traffic attribution); -1 = none.
  int slice_id = -1;
};

class Element {
 public:
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  virtual std::string className() const = 0;
  const std::string& name() const { return name_; }

  /// Process a packet arriving on `input_port`.  The packet is passed by
  /// rvalue reference down the whole push chain: an element that keeps
  /// or forwards it moves from it, and no hop move-constructs a Packet
  /// just to call the next element.
  virtual void push(int input_port, packet::Packet&& p) = 0;

  /// Connect this element's `port` to `target`'s `target_port`.
  void connectOutput(int port, Element& target, int target_port);

  int outputCount() const { return static_cast<int>(outputs_.size()); }

 protected:
  Element() = default;

  /// Hand a packet to whatever is connected to `port`; dropped (and
  /// counted) if the port is unconnected.
  void output(int port, packet::Packet&& p);

  std::uint64_t unconnectedDrops() const { return unconnected_drops_; }

 private:
  friend class RouterGraph;

  struct PortRef {
    Element* element = nullptr;
    int port = 0;
  };
  std::string name_ = "anon";
  std::vector<PortRef> outputs_;
  std::uint64_t unconnected_drops_ = 0;
};

/// Factory registry: class name -> constructor(args, context).
class ElementRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Element>(
      const std::vector<std::string>& args, ClickContext& context)>;

  static ElementRegistry& instance();

  void registerClass(const std::string& class_name, Factory factory);
  std::unique_ptr<Element> create(const std::string& class_name,
                                  const std::vector<std::string>& args,
                                  ClickContext& context) const;
  bool hasClass(const std::string& class_name) const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Registers the built-in element classes (idempotent).
void registerStandardElements();

}  // namespace vini::click
