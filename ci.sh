#!/usr/bin/env sh
# Tier-1 gate: the workspace must build and test hermetically.
#
# --offline  proves no network / registry access is needed (the build is
#            path-dependencies only; see DESIGN.md "Hermetic builds").
# --locked   proves Cargo.lock is in sync with the manifests.
set -eux

cargo build --release --offline --locked --workspace
cargo test -q --offline --locked --workspace
cargo clippy --offline --locked --workspace --all-targets -- -D warnings
cargo fmt --all --check
# The repo benchmark is a package of its own that path-depends on these
# crates; compile and test it here so a refactor that breaks the surface
# it uses fails in this gate, not only in the external pipeline.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
# ...and run it once, briefly: the traced mem4c run executes the
# benchmark's own fingerprint, stepped-vs-skipping, `results_match` and
# profiler-observation-only checks and drives every per-layer driver, so
# a refactor that breaks one fails here. It exits nonzero on a failed
# simulation or check; its last stdout line is the result object. (It
# writes only under the ignored benchmark/out and benchmark/target.)
cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
    run --workload mem4c --seconds 1 --traced > target/ci-benchmark.txt
tail -n 1 target/ci-benchmark.txt \
    | ./target/release/dbpreport --check --require-key metrics --require-key failed

# Telemetry gate: a tiny seeded run exports its Chrome trace and its one
# run document, which must carry every section (`--check` parses with the
# in-tree parser). The exports are deterministic and the shadow rack
# observation-only: a repeat of the run must write a byte-identical
# report, latency anatomy and decision audit included. dbpreport renders
# it plain, as markdown, and from stdin.
run_report() {
    ./target/release/dbpsim run --bench mcf,libquantum \
        --instructions 30000 --warmup 10000 --epoch 20000 --policy dbp \
        --trace-out target/ci-trace.json --report-out "$1" > /dev/null
}
run_report target/ci-report.json
run_report target/ci-report-repeat.json
diff target/ci-report.json target/ci-report-repeat.json
./target/release/dbpreport --check --require-key traceEvents target/ci-trace.json
./target/release/dbpreport --check --require-key epochs --require-key latency \
    --require-key audit --require-key schema_version target/ci-report.json
./target/release/dbpreport target/ci-report.json > /dev/null
./target/release/dbpreport --md target/ci-report.json > /dev/null
./target/release/dbpreport < target/ci-report.json > /dev/null
# The same repeat-diff for MCP, whose decisions the DBP run never makes:
# per-thread channel-group moves (debounced and banded) on 4 channels,
# and the conform and lazy page moves they cause.
run_mcp_report() {
    ./target/release/dbpsim run --mix mix50-1 --channels 4 \
        --instructions 60000 --warmup 30000 --epoch 30000 --policy mcp \
        --report-out "$1" > /dev/null
}
run_mcp_report target/ci-report-mcp.json
run_mcp_report target/ci-report-mcp-repeat.json
diff target/ci-report-mcp.json target/ci-report-mcp-repeat.json
./target/release/dbpreport --check --require-key epochs target/ci-report-mcp.json
grep -q '"channel_group"' target/ci-report-mcp.json
# ...and for DBP-TCM (the paper's Fig. 7 pairing), whose scheduler emits
# its own decisions: the run spans two 50 000-DRAM-cycle TCM quanta, so
# clusterings and shuffles land beside DBP's bank demands.
run_tcm_report() {
    ./target/release/dbpsim run --mix mix50-1 \
        --instructions 100000 --warmup 50000 --epoch 30000 --policy dbp --scheduler tcm \
        --report-out "$1" > /dev/null
}
run_tcm_report target/ci-report-tcm.json
run_tcm_report target/ci-report-tcm-repeat.json
diff target/ci-report-tcm.json target/ci-report-tcm-repeat.json
./target/release/dbpreport --check --require-key epochs target/ci-report-tcm.json
grep -q '"tcm_cluster"' target/ci-report-tcm.json
grep -q '"tcm_shuffle"' target/ci-report-tcm.json
grep -q '"bank_demand"' target/ci-report-tcm.json

# Experiment-suite determinism gate: the quick suite's stdout (every
# table of every experiment) must be byte-identical between the serial
# reference path (DBP_JOBS=1) and a parallel run (DBP_JOBS=2). Timing
# goes to stderr, so the diff sees simulation results only. The parallel
# run also publishes the suite-timing JSON, and runs self-profiled — so the diff additionally proves an enabled
# profiler does not perturb a single table of the suite.
DBP_JOBS=1 ./target/release/bench_all --quick \
    > target/ci-suite-serial.txt 2> /dev/null
DBP_JOBS=2 ./target/release/bench_all --quick \
    --json "$(pwd)/SUITE_timing.json" \
    --profile-out "$(pwd)/PROF_suite.json" \
    > target/ci-suite-parallel.txt
diff target/ci-suite-serial.txt target/ci-suite-parallel.txt
# ...and the run memo engaged end to end: Figure 5 reads Figure 4's
# cells, so inside the suite it must have simulated nothing.
grep -q '"name":"fig5_ms_dbp","wall_ns":[0-9]*,"jobs":0,' SUITE_timing.json
# ...and policy twins engaged: on Figure 4's grid DBP plans what equal-BP
# plans at every decision on most mixes, so those DBP cells rode along
# with equal-BP's simulations instead of running their own.
grep -q '"name":"fig4_ws_dbp",[^}]*"twin_hits":[1-9]' SUITE_timing.json
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
# building a profiled System (the engine's cells, the latency
# diagnostic) must skip nothing with --stepped and something without.
./target/release/bench_all --quick --stepped --profile-out target/ci-prof-stepped.json \
    fig1_motivation diag_interference > /dev/null 2>&1
./target/release/bench_all --quick --profile-out target/ci-prof-skipping.json \
    fig1_motivation diag_interference > /dev/null 2>&1
grep -q '"sim/cycles_skipped":0' target/ci-prof-stepped.json
# (`! cmd` is exempt from `set -e`, hence the explicit exits.)
if grep -q '"sim/cycles_skipped":0' target/ci-prof-skipping.json; then exit 1; fi
# ...and every run publishes its work counters exactly once, from
# whichever worker ran it: the serial leg's counter set must equal the
# pooled one's (a counter published twice, or lost on a worker, differs).
DBP_JOBS=1 ./target/release/bench_all --quick --profile-out target/ci-prof-serial.json \
    fig1_motivation diag_interference > /dev/null 2>&1
grep -o '"counters":{[^}]*}' target/ci-prof-skipping.json > target/ci-counters.txt
grep -o '"counters":{[^}]*}' target/ci-prof-serial.json > target/ci-counters-serial.txt
diff target/ci-counters.txt target/ci-counters-serial.txt
# ...and no worker loses a span: both profiles hold the same span paths,
# in the same order, with the same counts (durations are not compared).
grep -o '"name":"[^"]*","count":[0-9]*' target/ci-prof-skipping.json > target/ci-span-counts.txt
grep -o '"name":"[^"]*","count":[0-9]*' target/ci-prof-serial.json > target/ci-span-counts-serial.txt
diff target/ci-span-counts.txt target/ci-span-counts-serial.txt
./target/release/dbpreport --check --require-key experiments --require-key total_wall_ns SUITE_timing.json
./target/release/dbpreport --check --require-key spans --require-key counters PROF_suite.json
./target/release/dbpreport PROF_suite.json > /dev/null

# Latency-anatomy gate. The breakdown invariant (components sum exactly
# to the total, u64 equality) asserts in every build profile; run the
# named tests in release to prove the checks survive optimisation.
cargo test -q --release --offline --locked -p dbp-memctrl breakdown_components_sum
cargo test -q --release --offline --locked -p dbp-obs record_read_rejects

# Skip-vs-stepped gate on optimised code. The closed forms' strongest
# guards (`pick_flat`, the `Core::forward` replay, calendar-memo
# re-derivation) are debug-only, while the benchmark and every table run
# in release: prove the property-level equality there too.
cargo test -q --release --offline --locked -p dbp-memctrl time_skipping_is_bit_exact
cargo test -q --release --offline --locked -p dbp-sim time_skipping_is_bit_exact_end_to_end
# Policy twins on optimised code: every table is produced in release, and
# a twin answered by another policy's run must equal its own run there.
cargo test -q --release --offline --locked -p dbp-bench twin_groups_equal_independent_runs
# The candidate kernel's all-ones/zero class masks are exactly what
# optimisation could break, and the debug `pick_flat` check is compiled
# out of the build the benchmark runs: hold the kernel to
# `Dram::timing_ready`, and `pick` to the flat scan, in release too.
cargo test -q --release --offline --locked -p dbp-memctrl candidate_kernel_matches_timing_ready
cargo test -q --release --offline --locked -p dbp-memctrl \
    pick_matches_flat_scan_for_every_scheduler_page_policy_and_queue_cap

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
if ./target/release/dbpreport --folded target/ci-report.json 2> /dev/null; then exit 1; fi

# Publish the rendered interference diagnostic (quick mode) as a CI
# artifact next to SUITE_timing.json.
./target/release/bench_all --quick diag_interference > REPORT_interference.txt 2> /dev/null
