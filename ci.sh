#!/usr/bin/env sh
# Tier-1 gate: the workspace must build and test hermetically.
#
# --offline  proves no network / registry access is needed (the build is
#            path-dependencies only; see DESIGN.md "Hermetic builds").
# --locked   proves Cargo.lock is in sync with the manifests.
#
# DBP_BENCH_ITERS keeps the bench compile-and-smoke cheap in CI.
set -eux

cargo build --release --offline --locked --workspace
cargo test -q --offline --locked --workspace
cargo clippy --offline --locked --workspace -- -D warnings
cargo fmt --all --check
cargo check --benches --offline --locked --workspace
# The repo benchmark is a package of its own that path-depends on these
# crates; compile and test it here so a refactor that breaks the surface
# it uses fails in this gate, not only in the external pipeline.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
# Benches run with the package dir as cwd, so hand them an absolute path.
# One warmup + five timed iterations: enough for a meaningful per-bench
# *floor* (the statistic the perf gate compares), still cheap.
DBP_BENCH_ITERS=5 DBP_BENCH_WARMUP=1 DBP_BENCH_JSON="$(pwd)/BENCH_results.json" \
    cargo bench -q --offline --locked -p dbp-bench --bench micro
./target/release/dbpreport --check --require-key benchmarks BENCH_results.json

# Perf-regression gate: compare the fresh micro-bench *floors* (min_ns
# — preemption only ever slows an iteration, so the floor is what a
# structural slowdown must move) against the committed baseline and
# publish the verdict as PERF_summary.json. Fatal — a regressed or
# missing benchmark fails CI. The tolerance is widened from the ±35%
# default because CI runs few iterations on shared runners: the gate
# exists to catch structural slowdowns (an accidental O(n²), a dropped
# memo), not scheduling jitter.
# The history append is exercised on a scratch copy of the committed
# BENCH_history.jsonl, so a CI run leaves the tree clean; a PR adds its
# one real line itself:
#   ./target/release/bench_all --perf-only --baseline BENCH_baseline.json \
#       --bench-results BENCH_results.json --history-append BENCH_history.jsonl
cp BENCH_history.jsonl target/ci-bench-history.jsonl
./target/release/bench_all --perf-only --tolerance 0.6 \
    --baseline BENCH_baseline.json --bench-results BENCH_results.json \
    --perf-out "$(pwd)/PERF_summary.json" \
    --history-append "$(pwd)/target/ci-bench-history.jsonl"
./target/release/dbpreport --check --require-key benchmarks --require-key gate_passed PERF_summary.json
# The longitudinal history grew by exactly one line, and that line is a
# schema-stamped JSON object of this run's medians.
test "$(wc -l < target/ci-bench-history.jsonl)" -eq "$(($(wc -l < BENCH_history.jsonl) + 1))"
tail -n 1 target/ci-bench-history.jsonl | ./target/release/dbpreport --check --require-key medians

# Telemetry smoke test: a tiny traced run must produce machine-readable
# exports that the in-tree JSON parser accepts.
./target/release/dbpsim run --bench mcf,povray \
    --instructions 30000 --warmup 10000 --epoch 20000 --policy dbp \
    --trace-out target/ci-trace.json --metrics-out target/ci-metrics.json \
    > /dev/null
./target/release/dbpreport --check --require-key traceEvents target/ci-trace.json
./target/release/dbpreport --check --require-key epochs --require-key events target/ci-metrics.json

# Experiment-suite determinism gate: the quick suite's stdout (every
# table of every experiment) must be byte-identical between the serial
# reference path (DBP_JOBS=1) and a parallel run (DBP_JOBS=2). Timing
# goes to stderr, so the diff sees simulation results only. The parallel
# run also publishes the suite-timing JSON alongside BENCH_results.json,
# and runs self-profiled — so the diff additionally proves an enabled
# profiler does not perturb a single table of the suite.
DBP_JOBS=1 ./target/release/bench_all --quick \
    > target/ci-suite-serial.txt 2> /dev/null
DBP_JOBS=2 ./target/release/bench_all --quick \
    --json "$(pwd)/SUITE_timing.json" \
    --profile-out "$(pwd)/PROF_suite.json" \
    > target/ci-suite-parallel.txt
diff target/ci-suite-serial.txt target/ci-suite-parallel.txt
# Time-skip equivalence gate: the same quick suite driven by the
# always-stepped core (`--stepped` sets `SimConfig::time_skip = false`,
# pinning every System to per-cycle ticking) must print byte-identical
# tables. Together with the byte-identity property tests this proves the
# event-driven skipping path changes nothing observable end to end.
DBP_JOBS=2 ./target/release/bench_all --quick --stepped \
    > target/ci-suite-stepped.txt 2> /dev/null
diff target/ci-suite-serial.txt target/ci-suite-stepped.txt
# ...and the stepped leg really is stepped: identical tables cannot show
# an experiment that builds a fresh SimConfig and drops the flag, but
# the profiler's skipped-cycle counter can. One experiment per way of
# building a profiled System (run_grid, run_shared_grid, the latency
# diagnostic) must skip nothing with --stepped and something without.
./target/release/bench_all --quick --stepped --profile-out target/ci-prof-stepped.json \
    fig1_motivation ext1_energy diag_interference > /dev/null 2>&1
./target/release/bench_all --quick --profile-out target/ci-prof-skipping.json \
    fig1_motivation ext1_energy diag_interference > /dev/null 2>&1
grep -q '"sim/cycles_skipped":0' target/ci-prof-stepped.json
# (`! cmd` is exempt from `set -e`, hence the explicit exits.)
if grep -q '"sim/cycles_skipped":0' target/ci-prof-skipping.json; then exit 1; fi
./target/release/dbpreport --check --require-key experiments --require-key total_wall_ns SUITE_timing.json
./target/release/dbpreport --check --require-key spans --require-key counters PROF_suite.json
./target/release/dbpreport PROF_suite.json > /dev/null

# Latency-anatomy gate. The breakdown invariant (components sum exactly
# to the total, u64 equality) asserts in every build profile; run the
# named tests in release to prove the checks survive optimisation.
cargo test -q --release --offline --locked -p dbp-memctrl breakdown_components_sum
cargo test -q --release --offline --locked -p dbp-obs record_read_rejects

# Self-profiling gate. The span exact-sum invariant (self + children ==
# total, u64 equality) likewise asserts in every build profile.
cargo test -q --release --offline --locked -p dbp-obs exact_sum

# A profiled smoke run must export a schema-stamped profile document that
# dbpreport validates and renders in all three modes; the folded stacks
# are published as a CI artifact.
./target/release/dbpsim run --bench mcf,povray \
    --instructions 30000 --warmup 10000 --epoch 20000 --policy dbp \
    --profile-out target/ci-profile.json > /dev/null
./target/release/dbpreport --check --require-key spans --require-key counters target/ci-profile.json
./target/release/dbpreport target/ci-profile.json > /dev/null
./target/release/dbpreport --chrome target/ci-profile-chrome.json target/ci-profile.json
./target/release/dbpreport --check --require-key traceEvents target/ci-profile-chrome.json
./target/release/dbpreport --folded target/ci-profile.json > PROF_folded.txt
test -s PROF_folded.txt
# The profile-only modes refuse any other document kind.
if ./target/release/dbpreport --folded target/ci-metrics.json 2> /dev/null; then exit 1; fi

# The export must be deterministic: two identical seeded runs produce
# byte-identical --latency-out JSON, and dbpreport must validate it (file
# argument and stdin) and render it.
./target/release/dbpsim run --bench mcf,libquantum \
    --instructions 30000 --warmup 10000 --epoch 20000 --policy shared \
    --latency-out target/ci-latency.json > /dev/null
./target/release/dbpsim run --bench mcf,libquantum \
    --instructions 30000 --warmup 10000 --epoch 20000 --policy shared \
    --latency-out target/ci-latency-repeat.json > /dev/null
diff target/ci-latency.json target/ci-latency-repeat.json
./target/release/dbpreport --check --require-key interference --require-key cores target/ci-latency.json
./target/release/dbpreport --check --require-key interference < target/ci-latency.json
./target/release/dbpreport target/ci-latency.json > /dev/null
./target/release/dbpreport --md < target/ci-latency.json > /dev/null

# Decision-audit gate. The shadow rack is observation-only and fully
# deterministic: two identical seeded runs must export byte-identical
# --audit-out JSON (on top of the property test that proves the
# simulation itself is byte-identical with the rack attached vs
# detached). dbpreport must validate and render the document, as well as
# the committed full-fidelity audit.
./target/release/dbpsim run --bench mcf,libquantum \
    --instructions 30000 --warmup 10000 --epoch 20000 --policy dbp \
    --audit-out target/ci-audit.json > /dev/null
./target/release/dbpsim run --bench mcf,libquantum \
    --instructions 30000 --warmup 10000 --epoch 20000 --policy dbp \
    --audit-out target/ci-audit-repeat.json > /dev/null
diff target/ci-audit.json target/ci-audit-repeat.json
./target/release/dbpreport --check --require-key shadows --require-key convergence target/ci-audit.json
./target/release/dbpreport target/ci-audit.json > /dev/null
./target/release/dbpreport --md target/ci-audit.json > /dev/null
./target/release/dbpreport results/diag_audit.json > /dev/null

# Publish the rendered interference diagnostic (quick mode) as a CI
# artifact next to BENCH_results.json / SUITE_timing.json.
./target/release/bench_all --quick diag_interference > REPORT_interference.txt 2> /dev/null
