// vini_srclint: determinism & concurrency-readiness analysis over the
// C++ source tree itself.
//
// PR 1 built the V0xx/V1xx machinery for linting *specs* before they
// touch the substrate; this pass turns the same Diagnostic discipline on
// the *code*, the way rcc lints router configurations before deployment.
// The motivation is the parallel sharded event engine (ROADMAP item 2),
// whose hard requirement is "same seed => byte-identical exports
// regardless of thread count".  Two classes of source construct silently
// break that guarantee long before any thread exists, and both are
// findable statically:
//
//  * nondeterminism hazards — unordered-container iteration order
//    leaking into output, pointer-keyed ordering, wall-clock or global
//    RNG reads in sim paths, mutable static state;
//  * unguarded shared state — members documented as cross-shard but
//    missing a thread-safety annotation.
//
// The analyzer is a tokenizer plus pattern rules (no libclang
// dependency): it lexes each file, classifies brace scopes
// (namespace / class / function / initializer), and runs per-rule
// scans.  Analysis is file-scoped; a .cc file may be paired with its
// sibling header so member declarations resolve (the one cross-file
// fact the rules need).  Findings carry stable V2xx codes:
//
//   V200  iteration over std::unordered_map/unordered_set whose body
//         emits output, schedules events, or mutates ordered state
//         (error); any other unordered iteration (warning)
//   V201  container keyed by raw pointer value (std::map/set/
//         unordered_map/unordered_set with a pointer key type) —
//         iteration order then depends on allocation addresses
//   V202  wall-clock read (std::chrono::{system,steady,high_resolution}
//         _clock, time(), clock(), gettimeofday, ...) — sim paths must
//         use sim::now(); the event-loop profiler's reads live in the
//         baseline allowlist
//   V203  global or unseeded randomness (rand(), srand(),
//         std::random_device, a function-local engine constructed
//         without a seed) or a library-defined <random> distribution
//         (std::*_distribution, std::generate_canonical) — sim paths
//         draw from the seeded per-entity sim::Random streams, whose
//         distributions are specified in sim/random.h
//   V204  function-local or namespace-scope mutable static state
//         (non-const static locals, namespace-scope mutable globals)
//   V205  shared_ptr::use_count()-dependent logic (a race once the
//         refcount is touched by more than one thread)
//   V206  volatile used as a synchronization primitive
//   V207  data member documented with the cross-shard marker but missing a
//         VINI_GUARDED_BY / VINI_PT_GUARDED_BY annotation
//         (src/core/thread_annotations.h)
//   V208  EventQueue::schedule/scheduleAfter called with a tag string
//         outside the documented vocabulary (README "Schedule tag
//         vocabulary") — profiler breakdowns and PROFILE_report.json
//         consumers key on known tags, so a typo'd tag silently vanishes
//         from every per-subsystem view
//
// Accepted findings live in a checked-in baseline
// (examples/specs/srclint.baseline): one entry per (code, file), each
// carrying a mandatory justification string.  The gate fails on any
// unbaselined error and on any stale baseline entry, so the baseline
// can only shrink unless a justified entry is added consciously.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "check/diagnostic.h"

namespace vini::check {

/// One source finding.  `path` uses forward slashes; when produced by
/// lintTree() it is relative to the scanned root ("src/sim/foo.cc").
struct SrcFinding {
  Severity severity = Severity::kError;
  std::string code;     ///< stable "V2xx"
  std::string path;
  int line = 0;         ///< 1-based
  std::string message;
};

/// "error V204 [src/app/ping.cc:7]: ..."
std::string formatFinding(const SrcFinding& finding);

/// Analyze one file's text.  `companion_header` (may be empty) is lexed
/// for member declarations only — unordered-container members declared
/// in a class's header count as unordered when the .cc iterates them.
std::vector<SrcFinding> lintSource(const std::string& path,
                                   const std::string& text,
                                   const std::string& companion_header = "");

/// Recursively lint every .h/.cc under `root`/<subdir> for each subdir,
/// visiting files in sorted order (deterministic output).  Each .cc is
/// automatically paired with a same-stem sibling .h when one exists.
std::vector<SrcFinding> lintTree(const std::string& root,
                                 const std::vector<std::string>& subdirs);

// -- Baseline ---------------------------------------------------------------

/// One accepted suppression: all findings of `code` in `path` are
/// suppressed.  The justification is mandatory.
struct BaselineEntry {
  std::string code;
  std::string path;
  std::string justification;
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

/// Parse baseline text ("Vxxx path -- justification" lines, # comments).
/// Throws std::runtime_error naming the offending line on a malformed
/// entry or a missing justification.
Baseline parseBaseline(const std::string& text);

/// Render findings as a baseline file body, one entry per (code, path),
/// sorted, with placeholder justifications to be filled in by a human.
std::string emitBaseline(const std::vector<SrcFinding>& findings);

struct BaselineResult {
  std::vector<SrcFinding> unbaselined;  ///< findings no entry covers
  std::vector<SrcFinding> suppressed;   ///< findings covered by an entry
  std::vector<BaselineEntry> stale;     ///< entries that covered nothing
};

BaselineResult applyBaseline(const std::vector<SrcFinding>& findings,
                             const Baseline& baseline);

/// Append findings to a Report with "path:line" locations, preserving
/// severity — bridges into the shared V-code formatting/gating.
void toReport(const std::vector<SrcFinding>& findings, Report& report);

/// Built-in fixtures: one positive and one negative snippet per V2xx
/// rule, run through lintSource().  Prints failures to `os`; returns
/// true when every fixture behaves.  Reachable as
/// `vini_srclint --self-test` so CI exercises the rules without the
/// repo as input.
bool srclintSelfTest(std::ostream& os);

}  // namespace vini::check
