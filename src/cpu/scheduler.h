// CPU scheduling model for shared nodes (Sections 4.1.1 / 4.1.2).
//
// The paper's PlanetLab evaluation hinges on CPU contention: a slice's
// user-space forwarder competes with every other runnable slice for the
// CPU.  PL-VINI adds two knobs — CPU *reservations* (a guaranteed minimum
// fraction, Sirius-style) and Linux *real-time priority* (a runnable RT
// process preempts any non-RT process immediately) — and Tables 4-6 and
// Figure 6 measure exactly what those knobs buy.
//
// The model: each node owns a Scheduler with a stochastic contention
// level k(t) = "other runnable slices".  A Process executes work in
// quanta; after each quantum it is descheduled for a gap sized so that
// its long-run CPU fraction is
//     f = max(reservation, 1 / (1 + k)).
// Real-time priority does two things, mirroring the paper's description:
// wakeup-from-idle latency collapses to a context switch ("a real-time
// process that becomes runnable immediately jumps to the head of the run
// queue"), and scheduling becomes fine-grained (short quanta / short
// gaps), which is what eliminates the socket-buffer overflows behind
// Figure 6(a).  Note that RT processes remain subject to reservations and
// shares ("a real-time process that runs amok cannot lock the machine").
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/time.h"

namespace vini::cpu {

/// Node-level scheduler parameters.
struct SchedulerConfig {
  /// Multiplier applied to all CPU costs on this node.  Costs throughout
  /// the system are expressed for the reference machine (the paper's
  /// 2.8 GHz Xeon on DETER); a 1.4 GHz P-III PlanetLab node uses ~2.0.
  double speed_factor = 1.0;

  /// Scheduler timeslice for a CPU-bound, default-share process.
  sim::Duration timeslice = 6 * sim::kMillisecond;

  /// Mean and spread of the number of *other* runnable slices.  Zero
  /// means a dedicated machine (the DETER experiments).
  double contention_mean = 0.0;
  double contention_stddev = 0.0;
  /// How often the contention level is resampled.
  sim::Duration contention_resample = 100 * sim::kMillisecond;

  /// Fixed context-switch cost added to every wakeup from idle.
  sim::Duration context_switch = 5 * sim::kMicrosecond;

  /// Mean extra run-queue delay per contending slice for a non-RT wakeup
  /// (a mostly-sleeping process keeps Linux's interactivity bonus, so it
  /// usually schedules quickly even on a loaded box).
  sim::Duration wakeup_delay_per_slice = 150 * sim::kMicrosecond;

  /// Rare long scheduler stalls for non-RT processes (lost interactivity
  /// bonus, expired epochs); these produce the 80 ms ping outliers of
  /// Table 5 and the loss bursts of Figure 6(a).
  double stall_probability = 0.012;
  sim::Duration stall_min = 4 * sim::kMillisecond;

  /// Residual wakeup noise for real-time processes (kernel threads,
  /// softirqs, and other RT work still get in the way briefly).
  sim::Duration rt_wakeup_noise = 15 * sim::kMicrosecond;

  /// A real-time process preempts the entire timeshare class, so only a
  /// small fraction of the nominal contention is effective for it (other
  /// RT work, kernel threads).  Its share is
  ///   max(reservation, 1 / (1 + rt_contention_discount * k)).
  double rt_contention_discount = 0.15;

  std::uint64_t seed = 1;

  /// Owning node's name, used to key this scheduler's (and its
  /// processes') metrics in the observability registry.
  std::string node_name = "node";
};

/// Per-process scheduling parameters (one process ~ one slice's daemon).
struct ProcessConfig {
  std::string name = "proc";
  /// Guaranteed minimum CPU fraction (0 = fair share only).
  double cpu_reservation = 0.0;
  /// Linux real-time priority boost.
  bool realtime = false;
};

class Scheduler;

/// A schedulable user-space process that consumes CPU to do work.
///
/// Work is submitted with execute(cost, done): the process burns `cost`
/// of reference-machine CPU (scaled by the node's speed factor, divided
/// by its achievable CPU share, punctuated by descheduling gaps) and then
/// invokes `done`.  Jobs queue FIFO, modelling a single-threaded daemon
/// like the Click forwarder.
class Process {
 public:
  Process(Scheduler& sched, ProcessConfig config);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Submit one unit of work.  `reference_cpu_cost` is the cost on the
  /// reference machine; `done` runs when the work completes.  `done` is
  /// the event engine's small-buffer callback: a job capturing a few
  /// pointers (Click's per-packet jobs) is queued without a heap
  /// allocation.
  void execute(sim::Duration reference_cpu_cost, sim::EventQueue::Callback done);

  /// True if no work is queued or running.
  bool idle() const { return !running_ && jobs_.empty(); }

  std::size_t queuedJobs() const { return jobs_.size(); }

  /// Total CPU consumed since the last resetAccounting().
  sim::Duration consumedCpu() const { return consumed_; }

  /// CPU fraction consumed since the last resetAccounting() — the
  /// "mean CPU%" column of Tables 2 and 4.
  double utilization() const;

  void resetAccounting();

  const ProcessConfig& config() const { return config_; }

 private:
  friend class Scheduler;

  struct Job {
    sim::Duration remaining = 0;  // already speed-scaled
    sim::EventQueue::Callback done;
  };

  void wakeup();
  void runSlice();

  Scheduler& sched_;
  ProcessConfig config_;
  /// Timeline track for this process's scheduling events.
  std::string timeline_track_;
  /// Node attribution for scheduled slices (shard-readiness telemetry).
  sim::NodeTag node_tag_ = sim::kNoNode;
  std::deque<Job> jobs_;
  bool running_ = false;
  sim::Duration quantum_left_ = 0;
  sim::Duration consumed_ = 0;
  sim::Time accounting_start_ = 0;
  // Observability handles (null when no obs context is installed).
  obs::Counter* m_jobs_ = nullptr;
  obs::Counter* m_cpu_ns_ = nullptr;
  obs::Counter* m_wakeups_ = nullptr;
};

/// Per-node CPU scheduler; owns the contention process and the RNG.
class Scheduler {
 public:
  Scheduler(sim::EventQueue& queue, SchedulerConfig config);

  /// Create a process on this node.  The Scheduler keeps ownership.
  Process& createProcess(ProcessConfig config);

  /// Current number of other runnable slices, k(t).
  double contention() const { return contention_; }

  /// CPU share a process with the given parameters achieves right now.
  double achievableShare(const ProcessConfig& p) const;

  /// Sampled delay between a process becoming runnable and running.
  sim::Duration sampleWakeupLatency(const ProcessConfig& p);

  /// Sampled descheduled gap following an exhausted quantum.
  sim::Duration sampleGap(const ProcessConfig& p);

  /// Quantum length for the given process (RT processes are scheduled at
  /// a much finer grain).
  sim::Duration quantum(const ProcessConfig& p) const;

  const SchedulerConfig& config() const { return config_; }
  sim::EventQueue& queue() { return queue_; }
  sim::Random& random() { return random_; }

 private:
  void resampleContention();

  sim::EventQueue& queue_;
  SchedulerConfig config_;
  std::string timeline_track_;
  sim::Random random_;
  double contention_ = 0.0;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unique_ptr<sim::PeriodicTimer> resample_timer_;
  obs::Counter* m_stalls_ = nullptr;
};

}  // namespace vini::cpu
