#!/usr/bin/env bash
# The vini-verify gate: strict build + spec lint + clang-tidy +
# sanitized test suites, as one command.  CI runs exactly this script;
# locally it is also reachable as `cmake --build build --target check`.
#
# Stages:
#   1. strict build: -Wall -Wextra -Werror, runtime audits compiled in,
#      observability layer on (-DVINI_OBS=ON)
#   2. vini_lint over every spec shipped under examples/specs/
#   2b. vini_srclint: self-test, then a V2xx determinism/concurrency scan
#      of src/ and tools/ against the checked-in baseline — unbaselined
#      errors and stale baseline entries both fail the gate
#   3. full ctest suite on the strict build
#   4. vini_trace --self-test (VTRC binary format round trip)
#   5. smoke-run the obs-ported benches (VINI_SMOKE=1): fig6, fig8, and
#      the BM_Obs, BM_Fib, BM_Tunnel, BM_PacketBox and BM_Random
#      micro-benchmarks (BM_PacketBox churns the per-thread packet cache;
#      BM_Random draws from sim::Random's distributions).  These run with
#      a live metrics registry, so any metric registered twice with
#      conflicting types aborts the bench (std::logic_error) and fails
#      the gate.  They run
#      from the build dir so their CSVs never clobber tracked artifacts.
#   5b. vini_chaos smoke: a seeded fault campaign must pass its
#      invariant audits and print byte-identical reports across two runs
#   5c. vini_timeline: self-test, a fixed-seed double export that must
#      be byte-identical (spans, timeline, series, and the Chrome trace
#      JSON), and a validate pass over the JSON (well-formedness plus
#      per-track timestamp monotonicity)
#   5e. live-migration chaos smoke: a seeded campaign with the migrate
#      verb enabled (spare substrate node, V130-V133 audits) must pass
#      and print byte-identical reports and migration JSON across two
#      runs; MIGRATION_report.json is the CI artifact
#   5g. perf-trajectory gate: a fresh full-fidelity bench_engine run
#      (its internal gate fails unless every sharded thread count
#      simulates identical event/packet/round counts; each row also
#      reports the shard runtime's critical path and the speedup
#      ceiling it implies) writes BENCH_engine.json
#      and is compared against the checked-in one; sim packets/s more
#      than 15% below baseline fails (packets, not events, so fusing
#      events is not read as a regression).  The binary self-skips the
#      comparison under VINI_SMOKE (smoke runs are too short to be
#      stable), so exporting VINI_SMOKE=1 before check.sh skips it
#   5h. sharded-engine determinism gate: the canned vini_timeline
#      scenario is exported under the parallel engine at 1, 2, and 8
#      worker threads, and every export
#      (Chrome JSON, spans/timeline/series CSV) must be byte-identical
#      to the 1-thread reference — thread count must never leak into
#      results; the 1- and 8-thread Chrome JSON must also pass
#      vini_timeline validate, and the 1-thread timeline CSV's t_ns
#      column must never decrease (lane and main-thread rows fold
#      through one time-ordered merge)
#   6. clang-tidy over src/ and tools/ (skipped when not installed)
#   7. full ctest suite under AddressSanitizer and UBSan builds, with
#      the runtime shard-ownership check armed (-DVINI_SHARD_CHECK=ON)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)
FAILED=0

stage() { echo; echo "==== $* ===="; }

# --- 1. Strict build (warnings are errors, audits + obs on) -----------------
stage "build (VINI_WERROR=ON VINI_AUDIT=ON VINI_OBS=ON)"
cmake -B build-check -S . \
  -DVINI_WERROR=ON -DVINI_AUDIT=ON -DVINI_OBS=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
cmake --build build-check -j "$JOBS"

# --- 2. Lint every shipped spec ----------------------------------------------
stage "vini_lint examples/specs"
./build-check/tools/vini_lint \
  examples/specs/abilene.conf \
  examples/specs/denver_failover.trace \
  examples/specs/maintenance.trace \
  examples/specs/chaos.trace
./build-check/tools/vini_lint examples/specs/deter.conf

# --- 2b. Source determinism/concurrency lint ---------------------------------
# The V2xx pass: unordered iteration feeding output, pointer-keyed
# containers, wall-clock/randomness escapes, mutable statics, and
# missing VINI_GUARDED_BY on cross-shard members.  Suppressions live in
# examples/specs/srclint.baseline and must each carry a justification.
stage "vini_srclint (self-test + src/ tools/ scan vs baseline)"
./build-check/tools/vini_srclint --self-test
./build-check/tools/vini_srclint --root . \
  --baseline examples/specs/srclint.baseline src tools

# --- 3. Test suite with audits compiled in -----------------------------------
stage "ctest (audited build)"
ctest --test-dir build-check --output-on-failure -j "$JOBS"

# --- 4. Trace-format self-test -----------------------------------------------
stage "vini_trace --self-test"
./build-check/tools/vini_trace --self-test

# --- 5. Smoke-run the obs-ported benches -------------------------------------
# A type-conflicting metric registration throws std::logic_error at
# startup, so the smoke runs double as the registration-consistency gate.
stage "bench smoke (VINI_SMOKE=1)"
(cd build-check && VINI_SMOKE=1 ./bench/bench_fig6_udp_loss > /dev/null)
(cd build-check && VINI_SMOKE=1 ./bench/bench_fig8_ospf_convergence > /dev/null)
(cd build-check && ./bench/bench_micro --benchmark_filter='BM_(Obs|Fib|Tunnel|PacketBox|Random).*' \
  > /dev/null 2>&1)

# --- 5b. Chaos smoke ----------------------------------------------------------
# A seeded fault campaign must pass its invariant audits (V120-V123)
# AND be bit-reproducible: the same seed twice must print the same
# bytes, or determinism regressed somewhere in the stack.
stage "vini_chaos smoke (VINI_SMOKE=1, seed 1, twice)"
(cd build-check && VINI_SMOKE=1 ./tools/vini_chaos --seed 1 > chaos-run-1.txt)
(cd build-check && VINI_SMOKE=1 ./tools/vini_chaos --seed 1 > chaos-run-2.txt)
diff build-check/chaos-run-1.txt build-check/chaos-run-2.txt || {
  echo "vini_chaos: seed 1 is not bit-reproducible"; exit 1; }

# --- 5c. Timeline gate --------------------------------------------------------
# The span/timeline/sampler stack must export deterministically: two
# same-seed runs of the canned scenario produce byte-identical files,
# and the Chrome trace JSON parses with monotonic per-track timestamps.
stage "vini_timeline (self-test + fixed-seed double export + validate)"
./build-check/tools/vini_timeline --self-test
(cd build-check && VINI_SMOKE=1 ./tools/vini_timeline export --seed 811 \
  --out timeline-run-1 > /dev/null)
(cd build-check && VINI_SMOKE=1 ./tools/vini_timeline export --seed 811 \
  --out timeline-run-2 > /dev/null)
for EXT in json spans.csv timeline.csv series.csv; do
  diff "build-check/timeline-run-1.$EXT" "build-check/timeline-run-2.$EXT" || {
    echo "vini_timeline: seed 811 export ($EXT) is not bit-reproducible"
    exit 1
  }
done
./build-check/tools/vini_timeline validate build-check/timeline-run-1.json

# --- 5e. Live-migration chaos smoke ------------------------------------------
# A seeded chaos campaign with live migrations enabled (spare substrate
# node, migrate verb, V130-V133 audits) must PASS and be bit-reproducible:
# two same-seed runs are byte-diffed, report and migration JSON both.
# The JSON lands next to BENCH_engine.json as a CI artifact.
stage "vini_chaos --migrate seeded smoke + double-run diff"
(cd build-check && ./tools/vini_chaos --world deter --duration 60 --seed 1 \
  --migrate --json MIGRATION_report.json > migration-run-1.txt)
(cd build-check && ./tools/vini_chaos --world deter --duration 60 --seed 1 \
  --migrate --json migration-run-2.json > migration-run-2.txt)
diff build-check/migration-run-1.txt build-check/migration-run-2.txt || {
  echo "vini_chaos --migrate: seed 1 report is not bit-reproducible"
  exit 1
}
diff build-check/MIGRATION_report.json build-check/migration-run-2.json || {
  echo "vini_chaos --migrate: seed 1 migration JSON is not bit-reproducible"
  exit 1
}

# --- 5g. Perf-trajectory gate -------------------------------------------------
# Compare a fresh full-fidelity run against the checked-in baseline;
# bench_engine exits nonzero when sim packets/s regresses more than 15%, or
# when two sharded thread counts disagree on events, packets or rounds.
# Under VINI_SMOKE (exported by the caller) the binary self-skips the
# comparison, so smoke invocations of this script stay fast and stable.
stage "bench_engine --baseline BENCH_engine.json (>15% sim packets/s regression fails)"
(cd build-check && ./bench/bench_engine \
  --baseline ../BENCH_engine.json --out BENCH_engine.json)

# --- 5h. Sharded-engine determinism gate -------------------------------------
# The parallel engine's contract: same seed => byte-identical exports
# for every worker count.  threads=1 runs the sharded schedule serially
# and is the reference; 2 and 8 must reproduce it exactly.
stage "vini_timeline --threads {1,2,8} export diff + validate (sharded determinism)"
for T in 1 2 8; do
  (cd build-check && VINI_SMOKE=1 ./tools/vini_timeline export --seed 811 \
    --threads "$T" --out "timeline-t$T" > /dev/null)
done
for T in 2 8; do
  for EXT in json spans.csv timeline.csv series.csv; do
    diff "build-check/timeline-t1.$EXT" "build-check/timeline-t$T.$EXT" || {
      echo "vini_timeline: export diverges at $T threads ($EXT)"
      exit 1
    }
  done
done
# The sharded path's JSON is parsed too, not only diffed.
for T in 1 8; do
  ./build-check/tools/vini_timeline validate "build-check/timeline-t$T.json"
done
# Main-thread and lane rows fold in one (t, lane, issue) order, so the
# timeline CSV's t_ns column (the third) never steps back.
awk -F, 'NR > 2 && $3 + 0 < prev { print "vini_timeline: t_ns decreases at row " NR; bad = 1 }
         NR > 1 { prev = $3 + 0 }
         END { exit bad }' build-check/timeline-t1.timeline.csv || exit 1

# --- 6. clang-tidy -----------------------------------------------------------
stage "clang-tidy"
if command -v clang-tidy > /dev/null 2>&1; then
  # Lint the sources of the libraries and tools; headers ride along via
  # HeaderFilterRegex in .clang-tidy.
  mapfile -t TIDY_SOURCES < <(find src tools -name '*.cc' | sort)
  clang-tidy -p build-check --quiet "${TIDY_SOURCES[@]}" || FAILED=1
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

# --- 7. Sanitized test suites ------------------------------------------------
for SAN in address undefined; do
  stage "ctest (VINI_SANITIZE=$SAN)"
  cmake -B "build-$SAN" -S . \
    -DVINI_SANITIZE="$SAN" -DVINI_AUDIT=ON -DVINI_SHARD_CHECK=ON > /dev/null
  cmake --build "build-$SAN" -j "$JOBS"
  ctest --test-dir "build-$SAN" --output-on-failure -j "$JOBS" || FAILED=1
done

echo
if [ "$FAILED" -ne 0 ]; then
  echo "vini-verify gate: FAILED"
  exit 1
fi
echo "vini-verify gate: OK"
