#!/bin/sh
# Staged offline CI for the whole simulator.
#
#     scripts/ci.sh [fmt|clippy|build|test|smoke|golden|repro|simbench|kernel|blame|profile|ranks|collectives|campaign|all]
#
# Each stage is independently runnable and timed; `all` (the default)
# runs them in order. The workspace has zero external dependencies, so
# `--offline` must always succeed — any accidental reintroduction of a
# registry crate fails here before it fails in an air-gapped environment.
#
# Stages:
#   fmt     rustfmt check
#   clippy  lint the whole workspace, warnings are errors
#   build   release build of every crate
#   test    the tier-1 gate: full workspace test suite (it pins every
#           bench work count, `crates/bench/tests/counts.rs`) + named contracts,
#           no environment-variable reads in the library crates, no
#           `MpiJob::new` outside the scenario registry (root tests
#           included), no 32-hex-digit digest literal in any test and no
#           trace of the deleted bulk fast path or its switch
#   smoke   end-to-end demos produce valid traces with required events
#   golden  digests match the one pinned corpus, results/golden/ (a
#           corpus file no scenario records fails), and the paper's
#           performance guidelines hold
#   repro   the committed artifacts are current: `repro all --dat`
#           prints results/repro_all.txt byte for byte and writes every
#           dat file as committed under results/dat/; `repro all
#           --class-a` runs to a zero exit
#   simbench
#           the end-to-end benchmark's own tests pass, and one short
#           untraced run of each workload reproduces every job's
#           recorded virtual outputs (`"correct": true`)
#   kernel  the timings `bench` keeps: the kernel dispatch jobs and the
#           host profiler's overhead (which `bench` itself gates at
#           <=5%), compared with the baseline's `kernel/` and `profile/`
#           rows: events exact, wall clock within 50%
#   blame   the wait-state/critical-path analyzer emits valid JSON and
#           dat output, replays its own trace losslessly, and the two
#           blame guidelines hold
#   profile both profiling domains emit parseable folded stacks and
#           valid speedscope/timeline JSON on two scenarios
#   ranks   a 1024-rank ring job completes in one process (the engine's
#           determinism is the golden corpus's `engine` scenario, checked
#           in the `golden` stage)
#   collectives
#           the selectable collective-algorithm suite: every algorithm
#           is semantically equivalent to the baseline (property test),
#           tags never collide across ops (regression), a quick
#           autotune sweep finds a LAN/WAN algorithm divergence, the
#           full sweep rewrites the committed results/dat/coll_decision_*
#           tables byte for byte, and
#           the four collective guidelines hold, each named in output
#   campaign
#           the sweep engine and run ledger: a quick campaign runs
#           twice sharing one result cache (second pass >=90% hits),
#           both ledgers validate, `ledger diff` sees zero digest
#           changes, and an injected loss perturbation surfaces in
#           `ledger top` with a nonzero blame-share delta
set -eu
cd "$(dirname "$0")/.."

# Quiet no-op when `build` already ran; lets smoke/golden/... run alone.
release_bins() {
    cargo build --release --workspace --offline --quiet
}

stage_fmt() {
    cargo fmt --all --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_build() {
    cargo build --release --workspace --offline
}

stage_test() {
    cargo test -q --workspace --offline
    # Fault determinism: same seed => bit-identical runs; empty plan =>
    # the fault-free timeline. (Also part of the workspace run above;
    # called out so a failure names the contract.)
    cargo test -q --offline --test fault_determinism
    cargo test -q --offline -p mpisim --test fault_semantics
    # Water-fill contract: the fill matches its oracle bit for bit, a
    # burst at one instant costs at most two fills, and a round or a
    # finish that moves no input costs none.
    cargo test -q --offline -p netsim --lib flow::tests
    # Pinned segments: rounds run back to back on the live state are
    # bit-identical to one round per dispatch, sample streams included
    # (WAN, LAN, link-bound, interrupted and traced flows); a segment
    # converts O(1) finish instants, stops at a foreign heap timer and at
    # the run's time limit, never runs on a lossy channel, and each way
    # out of it is covered. Probes never move a virtual timestamp.
    cargo test -q --offline -p netsim --lib -- flow::tests::a_pinned flow::tests::no_pinned_segment \
        flow::tests::a_lone_wan flow::tests::a_lossy flow::tests::single_flow flow::tests::interrupted \
        flow::tests::link_bound flow::tests::lan_ flow::tests::cwnd_probe
    cargo test -q --offline -p netsim --test probe_observer_effect
    # A zero round-trip time is rejected where routes are built.
    cargo test -q --offline -p netsim --lib topology::tests::a_zero_round_trip_time
    # Timer ordering contract: timeline entries run among heap events in
    # the kernel's exact (time, seq) order, are checked against the time
    # limit and released with the kernel, a timeline's bound is the
    # smallest foreign key, and a network rebinds its timers to whichever
    # kernel drives it.
    cargo test -q --offline -p desim --lib kernel::tests
    cargo test -q --offline -p netsim --lib flow::tests::a_network_driven_by_two_sims_rebinds_to_each
    # Library crates take configuration only through their APIs: no
    # environment-variable reads anywhere in their sources.
    if grep -rnE 'env::var' \
        crates/desim/src crates/netsim/src crates/mpisim/src \
        crates/npb/src crates/gridapps/src crates/placer/src; then
        echo "library crates must not read environment variables" >&2
        exit 1
    fi
    # Every run in `repro` and in the root package's tests is wired
    # through the scenario registry: only `scenario.rs` builds an `MpiJob`.
    if grep -rn 'MpiJob::new' crates/repro/src tests | grep -v '^crates/repro/src/scenario.rs:'; then
        echo "only crates/repro/src/scenario.rs may build an MpiJob" >&2
        exit 1
    fi
    # One pinned corpus: run digests live in results/golden/ (re-recorded
    # by `repro golden record`), never as 32-hex-digit literals in tests.
    if grep -rnE '"[0-9a-fA-F]{32}"' tests crates/*/tests; then
        echo "pin run digests in results/golden/, not in test sources" >&2
        exit 1
    fi
    # One round model: the closed-form bulk fast path and its switch are
    # gone; pinned segments run on the live state.
    if grep -rnE 'set_bulk_fast_path|fast_path\(|FastPlan' crates src tests; then
        echo "the bulk fast path and its switch must not come back" >&2
        exit 1
    fi
}

stage_smoke() {
    release_bins
    # The quickstart example exports a Chrome trace and the std-only
    # JSON validator checks it is well-formed.
    QUICKSTART_TRACE=target/quickstart.trace.json \
        cargo run --release --offline --quiet --example quickstart >/dev/null
    ./target/release/repro validate target/quickstart.trace.json
    # The loss sweep + degradation demo runs end to end, the exported
    # trace is valid JSON, and the injected faults are actually visible
    # in it (structured event check, not a text grep).
    ./target/release/repro faults --dat target/faultdat \
        --trace-out target/faults.trace.json >/dev/null
    ./target/release/repro validate target/faults.trace.json \
        --require-event rank_fail --require-event chunk_reissued
    test -s target/faultdat/faults_goodput.dat
    test -s target/faultdat/faults_ray2mesh.dat
    # The per-rank trace runs on the obs MPI span stream; its exported
    # trace carries those spans. The flag comes before the file: a flag's
    # value is never taken for a positional.
    ./target/release/repro trace CG --trace-out target/trace_cg.json >/dev/null
    ./target/release/repro validate --require-event mpi_span target/trace_cg.json
}

stage_golden() {
    release_bins
    # Every scenario's digest must match results/golden/ bit for bit, and
    # every corpus file must record a scenario. The corpus is the only
    # place a run digest is pinned.
    ./target/release/repro golden check
    # And the paper's qualitative shapes must still hold.
    ./target/release/repro guidelines
}

stage_repro() {
    release_bins
    rm -rf target/repro_dat
    ./target/release/repro all --dat target/repro_dat >target/repro_all.txt
    if ! cmp target/repro_all.txt results/repro_all.txt; then
        echo "repro all: stdout differs from results/repro_all.txt" >&2
        exit 1
    fi
    for _f in target/repro_dat/*; do
        _dat=$(basename "${_f}")
        if ! cmp "${_f}" "results/dat/${_dat}"; then
            echo "repro all --dat: ${_dat} differs from results/dat/${_dat}" >&2
            exit 1
        fi
    done
    # The NPB exhibits at class A run end to end (no committed output).
    ./target/release/repro all --class-a >target/repro_all_class_a.txt
}

stage_simbench() {
    cargo test --release --offline --manifest-path simbench/Cargo.toml
    # Each run compares every job's virtual outputs (elapsed ns, wire
    # messages and bytes, workload figures) exactly with the recorded
    # reference tables, so a model change that moves one fails here.
    mkdir -p target
    for _w in npb_b rank_ring pingpong_sweep; do
        cargo run --release --offline --quiet --manifest-path simbench/Cargo.toml -- \
            --workload "${_w}" --seed 1 --seconds 1 --trace 0 >"target/ci_simbench_${_w}.txt"
        if ! tail -n 1 "target/ci_simbench_${_w}.txt" | grep -q '"correct": true'; then
            echo "simbench ${_w}: a job's virtual outputs left the reference" >&2
            tail -n 1 "target/ci_simbench_${_w}.txt" >&2
            exit 1
        fi
    done
}

stage_kernel() {
    release_bins
    ./target/release/bench kernel profile --json target/bench_kernel.json
    # Compare against the baseline's kernel and profile rows only, so the
    # campaign rows are not reported as dropped.
    grep -E '"name": "(kernel|profile)/' BENCH_baseline.json >target/bench_kernel_baseline.json
    ./target/release/bench compare target/bench_kernel_baseline.json \
        target/bench_kernel.json --threshold 50
}

stage_blame() {
    release_bins
    # The blame report is valid JSON, the dat series exists, and a
    # trace-in replay of the analyzer's own event export reproduces an
    # analysis (post-hoc path == live path).
    ./target/release/repro blame pingpong --format json \
        --dat target/blamedat >target/blame.json
    ./target/release/repro validate target/blame.json
    test -s target/blamedat/blame_pingpong.dat
    ./target/release/repro blame pingpong \
        --emit-events target/blame_events.jsonl >/dev/null
    ./target/release/repro blame pingpong \
        --trace-in target/blame_events.jsonl --format json >/dev/null
    # The two attribution claims the layer exists to make.
    ./target/release/repro guidelines blame-slow-start-share blame-rndv-handshake
}

stage_profile() {
    release_bins
    # Every folded line must parse as `stack count`: a ;-separated stack,
    # one space, a non-negative integer — the grammar flamegraph tools
    # accept. Checked with awk so a formatting regression fails even if
    # the Rust-side parser and emitter drift together.
    check_folded() {
        test -s "$1"
        awk '!/^[^ ]+( [^ ]+)* [0-9]+$/ { print "bad folded line: " $0; bad=1 }
             END { exit bad }' "$1"
        awk -F';' '$1 !~ /[a-z]/ { bad=1 } END { exit bad }' "$1"
    }
    for scen in pingpong nas; do
        ./target/release/repro profile "${scen}" --domain host \
            --format folded --dat target/profdat >"target/prof_${scen}_host.folded"
        check_folded "target/prof_${scen}_host.folded"
        ./target/release/repro profile "${scen}" --domain virtual \
            --format folded >"target/prof_${scen}_virtual.folded"
        check_folded "target/prof_${scen}_virtual.folded"
        ./target/release/repro profile "${scen}" --domain host \
            --format speedscope >"target/prof_${scen}.speedscope.json"
        ./target/release/repro validate "target/prof_${scen}.speedscope.json"
        ./target/release/repro timeline "${scen}" --window 20 \
            --dat target/profdat >"target/timeline_${scen}.json"
        ./target/release/repro validate "target/timeline_${scen}.json"
    done
    # The --dat side-channel wrote the gnuplot series too.
    test -s target/profdat/profile_pingpong_host.dat
    test -s target/profdat/timeline_pingpong_events.dat
    # The summary view counts event kinds and span coverage of a real
    # exported trace.
    ./target/release/repro faults --trace-out target/prof_trace.json >/dev/null
    ./target/release/repro validate target/prof_trace.json --summary \
        | grep -q "span coverage"
}

stage_ranks() {
    release_bins
    # Rank-scale smoke: a 1024-rank ring in one process, clean exit.
    # Every rank is a pooled continuation task, so this needs no OS
    # thread per rank. (The 4096-rank ring is a tier-1 test; the
    # engine's determinism is the `golden` stage.)
    ./target/release/repro ring --ranks 1024 --rounds 2 >/dev/null
}

stage_collectives() {
    release_bins
    # Algorithm equivalence: every selectable bcast/reduce/allreduce
    # algorithm moves the same logical bytes with identical completion
    # semantics across random (ranks, sizes, topology) draws — and
    # collective tags never collide across op kinds.
    cargo test -q --offline -p mpisim --test coll_equivalence
    cargo test -q --offline -p mpisim --test coll_tag_regression
    # Autotune sweep smoke: the quick grid must run end to end and find
    # at least one (op, size class) whose winning algorithm differs
    # between the LAN and the four-site WAN (--check enforces that). Its
    # tables go under target/, away from the full sweep's committed ones.
    ./target/release/repro autotune-coll --quick --check \
        --dat target/coll_dat_quick --cache target/autotune_coll_cache.json
    # The committed decision tables must be what the full sweep writes:
    # rerun it cold (fresh cache) and byte-compare each table.
    rm -rf target/coll_dat target/coll_dat_cache.json
    ./target/release/repro autotune-coll --dat target/coll_dat \
        --cache target/coll_dat_cache.json >/dev/null
    for _dat in coll_decision_untuned.dat coll_decision_untuned.json \
        coll_decision_tuned.dat coll_decision_tuned.json; do
        if ! cmp "target/coll_dat/${_dat}" "results/dat/${_dat}"; then
            echo "autotune-coll --dat: ${_dat} differs from results/dat/${_dat}" >&2
            exit 1
        fi
    done
    # The four collective guidelines, each named in stage output. A
    # violated guideline fails the stage with its name on the FAIL line.
    ./target/release/repro guidelines \
        coll-bcast-le-scatter-allgather \
        coll-allreduce-le-reduce-bcast \
        coll-monotone-in-size \
        coll-two-level-le-flat-wan
}

stage_campaign() {
    release_bins
    rm -f target/ci_campaign_cache.json
    # Cold sweep, then a second pass over the same spec sharing the
    # result cache: everything deterministic must replay (>=90% hits
    # enforced by the binary, 100% expected).
    ./target/release/repro campaign --spec quick --label ci_a \
        --ledger-dir target/ci_ledger --cache target/ci_campaign_cache.json \
        --no-heartbeat
    ./target/release/repro campaign --spec quick --label ci_b \
        --ledger-dir target/ci_ledger --cache target/ci_campaign_cache.json \
        --no-heartbeat --min-cache-hits 90
    # Both ledgers are schema-valid JSONL.
    ./target/release/repro validate target/ci_ledger/ci_a.jsonl
    ./target/release/repro validate target/ci_ledger/ci_b.jsonl
    # Same spec, same code => zero digest changes and zero config
    # changes (the diff exits nonzero on a digest change). Capture to a
    # file: grep -q would close the pipe mid-print.
    ./target/release/repro ledger diff \
        target/ci_ledger/ci_a.jsonl target/ci_ledger/ci_b.jsonl \
        >target/ci_ledger/diff_ab.txt
    grep -q "^0 digest changes" target/ci_ledger/diff_ab.txt
    grep -q "^0 config changes" target/ci_ledger/diff_ab.txt
    # The warm replay must be dramatically cheaper than the cold sweep:
    # compare the in-campaign host_secs of the two summary rows.
    awk '
        /"kind":"summary"/ {
            if (!match($0, /"host_secs":[0-9.e-]+/)) next
            secs[++n] = substr($0, RSTART + 12, RLENGTH - 12) + 0
        }
        END {
            if (n < 2) { print "missing summary rows"; exit 1 }
            printf "campaign cold %.3fs, warm %.3fs (%.1fx)\n", \
                secs[1], secs[2], secs[1] / (secs[2] > 0 ? secs[2] : 1e-9)
            if (secs[1] < 5 * secs[2]) {
                print "warm campaign not >=5x faster than cold"; exit 1
            }
        }
    ' target/ci_ledger/ci_a.jsonl target/ci_ledger/ci_b.jsonl
    # Regression triage: an injected WAN loss perturbation must surface
    # in `ledger top` as a nonzero blame-share delta (the exit status
    # enforces the floor), with per-workload dat tables written.
    ./target/release/repro campaign --spec quick --label ci_perturbed \
        --ledger-dir target/ci_ledger --cache target/ci_campaign_cache.json \
        --no-heartbeat --perturb loss=0.003 --no-guidelines
    ./target/release/repro ledger top \
        target/ci_ledger/ci_a.jsonl target/ci_ledger/ci_perturbed.jsonl \
        --min-delta 0.05
    ./target/release/repro ledger report target/ci_ledger/ci_a.jsonl \
        --dat target/ci_ledger/dat
    test -s target/ci_ledger/dat/campaign_pp_1m.dat
    # The sweep engine's own wall-clock gate: cold vs warm bench events
    # are deterministic, so the baseline compare pins the spec shape.
    # Compare against the baseline's campaign rows only, so every other
    # group's row is not reported as dropped.
    ./target/release/bench campaign --json target/bench_campaign.json
    grep '"name": "campaign/' BENCH_baseline.json >target/bench_campaign_baseline.json
    ./target/release/bench compare target/bench_campaign_baseline.json \
        target/bench_campaign.json --threshold 400
}

run_stage() {
    _name="$1"
    _t0=$(date +%s)
    echo "==> ci: ${_name}"
    "stage_${_name}"
    echo "==> ci: ${_name} ok ($(($(date +%s) - _t0))s)"
}

case "${1:-all}" in
fmt | clippy | build | test | smoke | golden | repro | simbench | kernel | blame | profile | ranks | collectives | campaign)
    run_stage "$1"
    ;;
all)
    for _s in fmt clippy build test smoke golden repro simbench kernel blame profile ranks collectives campaign; do
        run_stage "${_s}"
    done
    echo "==> ci: all stages passed"
    ;;
*)
    echo "usage: scripts/ci.sh [fmt|clippy|build|test|smoke|golden|repro|simbench|kernel|blame|profile|ranks|collectives|campaign|all]" >&2
    exit 2
    ;;
esac
