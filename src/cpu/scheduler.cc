#include "cpu/scheduler.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "check/audit.h"

namespace vini::cpu {

// ---------------------------------------------------------------------------
// Process

Process::Process(Scheduler& sched, ProcessConfig config)
    : sched_(sched), config_(std::move(config)) {
  accounting_start_ = sched_.queue().now();
  timeline_track_ = "cpu/" + sched_.config().node_name + "/" + config_.name;
  node_tag_ = sched_.queue().internNodeTag(sched_.config().node_name);
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    obs::MetricsRegistry& m = ctx->metrics;
    const std::string& node = sched_.config().node_name;
    m_jobs_ = &m.counter("cpu.process", node, config_.name + "/jobs");
    m_cpu_ns_ = &m.counter("cpu.process", node, config_.name + "/cpu_ns");
    m_wakeups_ = &m.counter("cpu.process", node, config_.name + "/wakeups");
  }
}

Process::~Process() = default;

void Process::execute(sim::Duration reference_cpu_cost,
                      sim::EventQueue::Callback done) {
  const auto scaled = static_cast<sim::Duration>(
      static_cast<double>(reference_cpu_cost) * sched_.config().speed_factor);
  jobs_.push_back(Job{std::max<sim::Duration>(scaled, 0), std::move(done)});
  VINI_OBS_INC(m_jobs_);
  if (!running_) {
    running_ = true;
    wakeup();
  }
}

void Process::wakeup() {
  // Transition idle -> runnable: pay the scheduling latency, then start a
  // fresh quantum.
  const sim::Duration latency = sched_.sampleWakeupLatency(config_);
  quantum_left_ = sched_.quantum(config_);
  VINI_OBS_INC(m_wakeups_);
  VINI_OBS_TIMELINE_DURATION(timeline_track_, "wakeup",
                             sched_.queue().now(), latency);
  sched_.queue().scheduleAfter(latency, "cpu.scheduler", node_tag_,
                               [this] { runSlice(); });
}

void Process::runSlice() {
  if (jobs_.empty()) {
    running_ = false;
    return;
  }
  Job& job = jobs_.front();
  const sim::Duration chunk = std::min(job.remaining, quantum_left_);
  consumed_ += chunk;
  quantum_left_ -= chunk;
  job.remaining -= chunk;
  const bool job_done = job.remaining == 0;
  VINI_OBS_ADD(m_cpu_ns_, static_cast<std::uint64_t>(chunk));

  sched_.queue().scheduleAfter(chunk, "cpu.scheduler", node_tag_,
                               [this, job_done] {
    if (job_done) {
      auto done = std::move(jobs_.front().done);
      jobs_.pop_front();
      if (done) done();
    }
    if (jobs_.empty()) {
      running_ = false;
      return;
    }
    if (quantum_left_ > 0) {
      runSlice();
      return;
    }
    // Quantum exhausted with work pending: descheduled for a gap.
    const sim::Duration gap = sched_.sampleGap(config_);
    quantum_left_ = sched_.quantum(config_);
    VINI_OBS_TIMELINE_DURATION(timeline_track_, "descheduled",
                               sched_.queue().now(), gap);
    sched_.queue().scheduleAfter(gap, "cpu.scheduler", node_tag_,
                                 [this] { runSlice(); });
  });
}

double Process::utilization() const {
  const sim::Duration elapsed = sched_.queue().now() - accounting_start_;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(consumed_) / static_cast<double>(elapsed);
}

void Process::resetAccounting() {
  consumed_ = 0;
  accounting_start_ = sched_.queue().now();
}

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(sim::EventQueue& queue, SchedulerConfig config)
    : queue_(queue), config_(std::move(config)), random_(config_.seed) {
  timeline_track_ = "cpu/" + config_.node_name;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    m_stalls_ = &ctx->metrics.counter("cpu.scheduler", config_.node_name,
                                      "stalls");
  }
  contention_ = std::max(0.0, config_.contention_mean);
  if (config_.contention_mean > 0.0 && config_.contention_resample > 0) {
    resample_timer_ = std::make_unique<sim::PeriodicTimer>(
        queue_, config_.contention_resample, "cpu.scheduler",
        queue_.internNodeTag(config_.node_name),
        [this] { resampleContention(); });
    resample_timer_->start();
  }
}

Process& Scheduler::createProcess(ProcessConfig config) {
  processes_.push_back(std::make_unique<Process>(*this, std::move(config)));
#if VINI_AUDIT_ENABLED
  // V103: CPU-share conservation — guaranteed minima on one node must
  // never exceed the whole machine, or the guarantees are fiction.
  // core::Vini::admitNode enforces this for slices; the audit catches
  // processes created behind its back.
  double reserved = 0.0;
  for (const auto& p : processes_) reserved += p->config().cpu_reservation;
  VINI_AUDIT_CHECK(
      reserved <= 1.0 + 1e-9,
      (check::Diagnostic{check::Severity::kError, "V103",
                         "process " + processes_.back()->config().name,
                         "CPU reservations on this node sum to " +
                             std::to_string(reserved) +
                             ", exceeding the whole machine"}));
#endif
  return *processes_.back();
}

void Scheduler::resampleContention() {
  contention_ = std::max(
      0.0, random_.normal(config_.contention_mean, config_.contention_stddev));
}

double Scheduler::achievableShare(const ProcessConfig& p) const {
  const double effective_contention =
      p.realtime ? config_.rt_contention_discount * contention_ : contention_;
  const double fair = 1.0 / (1.0 + effective_contention);
  const double share = std::clamp(std::max(p.cpu_reservation, fair), 0.01, 1.0);
  // V103: a share outside (0, 1] would make gap sizing divide by zero
  // or grant more than the machine.
  VINI_AUDIT_CHECK(share > 0.0 && share <= 1.0,
                   (check::Diagnostic{check::Severity::kError, "V103",
                                      "process " + p.name,
                                      "achievable CPU share " +
                                          std::to_string(share) +
                                          " outside (0, 1]"}));
  return share;
}

sim::Duration Scheduler::quantum(const ProcessConfig& p) const {
  // RT priority in PL-VINI manifests as fine-grained preemption: the RT
  // process runs as soon as it is runnable, so its service is spread in
  // small slices rather than long run/starve cycles.
  return p.realtime ? config_.timeslice / 12 : config_.timeslice;
}

sim::Duration Scheduler::sampleWakeupLatency(const ProcessConfig& p) {
  sim::Duration latency = config_.context_switch;
  if (contention_ <= 0.0) return latency;
  if (p.realtime) {
    return latency + random_.exponentialDuration(config_.rt_wakeup_noise,
                                                 20 * config_.rt_wakeup_noise);
  }
  // Run-queue delay behind currently-running non-RT work; a sleepy process
  // keeps its interactivity bonus so the typical delay is sub-millisecond.
  latency += random_.exponentialDuration(static_cast<sim::Duration>(
      contention_ * static_cast<double>(config_.wakeup_delay_per_slice)));
  // Occasional long stall: the process lost its bonus or landed behind a
  // full epoch of CPU-bound slices.
  if (random_.chance(config_.stall_probability)) {
    const auto stall_cap = static_cast<sim::Duration>(
        contention_ * static_cast<double>(config_.timeslice) * 1.2);
    latency += random_.uniformDuration(config_.stall_min,
                                       std::max(config_.stall_min, stall_cap));
    VINI_OBS_INC(m_stalls_);
    VINI_OBS_TIMELINE_INSTANT(timeline_track_, "stall", queue_.now());
  }
  return latency;
}

sim::Duration Scheduler::sampleGap(const ProcessConfig& p) {
  const double share = achievableShare(p);
  if (share >= 1.0) return 0;
  const auto q = static_cast<double>(quantum(p));
  const double mean_gap = q * (1.0 - share) / share;
  if (p.realtime) {
    // Fine-grained: deterministic-ish short gaps (the process re-preempts
    // as soon as its share allows).
    return static_cast<sim::Duration>(mean_gap * random_.uniform(0.9, 1.1));
  }
  // Default share: the gap is the sum of the other runnable slices'
  // timeslices — exponential-ish with heavy spread, capped to keep the
  // long-run share honest.
  const auto gap = random_.exponentialDuration(
      static_cast<sim::Duration>(mean_gap),
      static_cast<sim::Duration>(mean_gap * 4.0));
  return gap;
}

}  // namespace vini::cpu
