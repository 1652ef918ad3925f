#!/bin/sh
# Staged offline CI for the whole simulator.
#
#     scripts/ci.sh [fmt|clippy|build|test|smoke|golden|simbench|blame|profile|ranks|pdes|collectives|campaign|bench|all]
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
#   test    the tier-1 gate: full workspace test suite + named contracts
#   smoke   end-to-end demos produce valid traces with required events
#   golden  digests match the recorded corpus (fast path on AND off),
#           and the paper's performance guidelines hold
#   simbench
#           the end-to-end benchmark's own tests pass, and one short
#           untraced run of each workload reproduces every job's
#           recorded virtual outputs (`"correct": true`)
#   blame   the wait-state/critical-path analyzer emits valid JSON and
#           dat output, replays its own trace losslessly, and the two
#           blame guidelines hold
#   profile both profiling domains emit parseable folded stacks and
#           valid speedscope/timeline JSON on two scenarios
#   ranks   a 1024-rank ring job completes in one process (the golden
#           corpus under the one rank engine is the `golden` stage)
#   pdes    the sharded conservative-PDES driver reproduces its golden
#           corpus bit for bit at 1, 2 and 4 workers, a 4-worker ring
#           smoke completes, and `bench pdes` meets the speedup floor
#           on hosts with enough cores (PDES_MIN_SPEEDUP, default 2.0)
#   collectives
#           the selectable collective-algorithm suite: every algorithm
#           is semantically equivalent to the baseline (property test),
#           tags never collide across ops (regression), a quick
#           autotune sweep finds a LAN/WAN algorithm divergence, and
#           the four collective guidelines hold, each named in output
#   campaign
#           the sweep engine and run ledger: a quick campaign runs
#           twice sharing one result cache (second pass >=90% hits),
#           both ledgers validate, `ledger diff` sees zero digest
#           changes, and an injected loss perturbation surfaces in
#           `ledger top` with a nonzero blame-share delta
#   bench   deterministic event counts match BENCH_baseline.json
set -eu
cd "$(dirname "$0")/.."

# Quiet no-op when `build` already ran; lets smoke/golden/bench run alone.
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
}

stage_golden() {
    release_bins
    # Every scenario's digest must match results/golden/ bit for bit —
    # with the closed-form bulk fast path engaged and disabled, since
    # digests are defined to be identical either way.
    ./target/release/repro golden check
    NETSIM_NO_FAST_PATH=1 ./target/release/repro golden check
    # And the paper's qualitative shapes must still hold.
    ./target/release/repro guidelines
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
    # thread per rank.
    ./target/release/repro ring --ranks 1024 --rounds 2 >/dev/null
}

stage_pdes() {
    release_bins
    # The PDES corpus (results/golden/pdes/) is recorded at one worker.
    # The site partition is a pure function of (topology, placement,
    # pattern) — never of the worker count — so every worker count must
    # reproduce the corpus bit for bit, with the bulk fast path engaged
    # and disabled (digests are defined to be identical either way, as
    # for the classic corpus). The corpus includes the four-site
    # ray2mesh scenario, so `--pdes 4` doubles as the 4-shard ray2mesh
    # smoke.
    ./target/release/repro golden check --pdes 1
    ./target/release/repro golden check --pdes 2
    ./target/release/repro golden check --pdes 4
    NETSIM_NO_FAST_PATH=1 ./target/release/repro golden check --pdes 4
    # Rank-scale smoke on the sharded driver: a 64-rank two-site ring at
    # 4 workers, clean exit (the ring asserts no undrained messages).
    ./target/release/repro ring --ranks 64 --rounds 2 --shards 4 >/dev/null
    # Host-side scaling. Correctness is the digest contract above; the
    # wall-clock speedup needs real cores, so the floor is enforced only
    # where the host has at least 4 — elsewhere the line is printed for
    # information.
    ./target/release/bench pdes --json target/bench_pdes.json
    _cpus=$(nproc 2>/dev/null || echo 1)
    if [ "${_cpus}" -ge 4 ]; then
        awk -v min="${PDES_MIN_SPEEDUP:-2.0}" '
            /"name": "pdes\/speedup_four_site"/ {
                found = 1
                if (!match($0, /"speedup": [0-9.]+/)) exit 1
                s = substr($0, RSTART + 12, RLENGTH - 12) + 0
                printf "pdes speedup %.2f at 4 workers (floor %.2f)\n", s, min
                if (s < min) exit 1
            }
            END { if (!found) { print "no pdes/speedup_four_site line"; exit 1 } }
        ' target/bench_pdes.json
    else
        echo "pdes: host has ${_cpus} cpu(s); speedup line is informational"
    fi
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
    # between the LAN and the four-site WAN (--check enforces that).
    ./target/release/repro autotune-coll --quick --check \
        --cache target/autotune_coll_cache.json
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
    ./target/release/bench campaign --json target/bench_campaign.json \
        --baseline none
    ./target/release/bench compare BENCH_baseline.json target/bench_campaign.json \
        --threshold 400
}

stage_bench() {
    release_bins
    # `bench smoke` itself asserts exact events counts against the
    # baseline; the explicit compare then exercises the diff tool. The
    # huge wall-clock threshold is deliberate: sub-millisecond smoke
    # benches jitter wildly on shared CI hosts, and the deterministic
    # events check above is the real gate.
    ./target/release/bench smoke --json target/bench_smoke.json
    ./target/release/bench compare BENCH_baseline.json target/bench_smoke.json \
        --threshold 400
    # Collective-algorithm suite: wire-message counts are deterministic,
    # so the compare gates every coll/* entry exactly.
    ./target/release/bench coll --json target/bench_coll.json --baseline none
    ./target/release/bench compare BENCH_baseline.json target/bench_coll.json \
        --threshold 400
}

run_stage() {
    _name="$1"
    _t0=$(date +%s)
    echo "==> ci: ${_name}"
    "stage_${_name}"
    echo "==> ci: ${_name} ok ($(($(date +%s) - _t0))s)"
}

case "${1:-all}" in
fmt | clippy | build | test | smoke | golden | simbench | blame | profile | ranks | pdes | collectives | campaign | bench)
    run_stage "$1"
    ;;
all)
    for _s in fmt clippy build test smoke golden simbench blame profile ranks pdes collectives campaign bench; do
        run_stage "${_s}"
    done
    echo "==> ci: all stages passed"
    ;;
*)
    echo "usage: scripts/ci.sh [fmt|clippy|build|test|smoke|golden|simbench|blame|profile|ranks|pdes|collectives|campaign|bench|all]" >&2
    exit 2
    ;;
esac
