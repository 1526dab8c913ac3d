#!/usr/bin/env bash
# The sharded CI figure pipeline: one place that defines the
# scaled-down fig12 + fig16 sweep grids, so the 4-way shard matrix,
# the merge job and local golden regeneration can never drift apart.
#
# Usage:
#   tools/ci_sweep.sh shard I N OUTDIR   run shard I/N of both grids,
#                                        journaling to OUTDIR
#   tools/ci_sweep.sh merge INDIR OUTDIR union INDIR/*'s shard
#                                        journals, emit merged
#                                        journals/CSVs/fingerprints in
#                                        OUTDIR and assert the pinned
#                                        goldens
#   tools/ci_sweep.sh golden OUTDIR      run both grids unsharded and
#                                        rewrite tests/golden/
#                                        ci_sweep_fingerprints.txt
#   tools/ci_sweep.sh spacefp            print "fig12 <fp>" and
#                                        "fig16 <fp>" space fingerprints
#                                        (CI cache keys)
#   tools/ci_sweep.sh warm CACHE OUTDIR  run both grids twice against
#                                        one result cache; assert pass 2
#                                        simulates 0 points yet emits
#                                        byte-identical golden-matching
#                                        fingerprints
#   tools/ci_sweep.sh warmup-warm CACHE OUTDIR
#                                        run the two-point issue-latency
#                                        grid uncached, then twice
#                                        against one warmup checkpoint
#                                        store; assert warmup runs
#                                        exactly once, restores restore,
#                                        and all three fingerprints
#                                        match the pinned golden
#
# HERMES_SWEEP points at the hermes_sweep binary (default:
# build/hermes_sweep relative to the repo root).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep_bin="${HERMES_SWEEP:-$repo_root/build/hermes_sweep}"
golden_file="$repo_root/tests/golden/ci_sweep_fingerprints.txt"

# The grids are part of the pinned golden fingerprints: keep ambient
# scaling out of them.
unset HERMES_SIM_SCALE HERMES_BENCH_SUITE

# Scaled-down fig12: the paper's single-core mechanism grid (no-pf /
# Hermes-O / Pythia / Pythia+Hermes-O) over the quick suite.
fig12_space() {
    "$sweep_bin" \
        predictor=popet hermes.issue_latency=6 \
        --axis "prefetcher=none,pythia" \
        --axis "hermes.enabled=false,true" \
        --suite quick --warmup 6000 --instrs 20000 \
        --no-progress "$@"
}

# Scaled-down fig16: the eight-core predictor comparison on one
# heterogeneous and one homogeneous mix.
hetero_mix="spec06.mcf_like.0,spec06.lbm_like.0,spec17.fotonik_like.0"
hetero_mix+=",spec17.xalancbmk_like.0,parsec.streamcluster_like.0"
hetero_mix+=",ligra.bfs_like.0,ligra.pagerank_like.0,cvp.server_db_like.0"
fig16_space() {
    "$sweep_bin" \
        system.cores=8 prefetcher=pythia hermes.enabled=true \
        --axis "predictor=hmp,ttp,popet" \
        --mix "$hetero_mix" --trace spec06.mcf_like.0 \
        --warmup 2000 --instrs 6000 \
        --no-progress "$@"
}

# Two-point issue-latency sweep whose points share one warmup identity
# (hermes.warmup_issue=false makes hermes.issue_latency measure-only):
# the checkpointed-warmup probe for the warmup-warm gate.
warmlat_space() {
    "$sweep_bin" \
        predictor=popet hermes.enabled=true hermes.warmup_issue=false \
        --axis "hermes.issue_latency=6,18" \
        --trace corpus.chase --warmup 6000 --instrs 20000 \
        --no-progress "$@"
}

mips_of_journal() { # journal file -> "X.XX" (simulated MIPS) or "-"
    python3 - "$1" <<'EOF'
import json, sys
instrs = seconds = 0
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        if "host" in rec:
            seconds += rec["host"][0]
            instrs += rec["host"][1]
print(f"{instrs / seconds / 1e6:.2f}" if seconds > 0 else "-")
EOF
}

step_summary() { # append a line to the GitHub step summary, if any
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        echo "$1" >>"$GITHUB_STEP_SUMMARY"
    fi
}

cmd="${1:?usage: ci_sweep.sh shard|merge|golden ...}"
shift
case "$cmd" in
shard)
    i="${1:?shard index}"
    n="${2:?shard count}"
    out="${3:?output dir}"
    mkdir -p "$out"
    fig12_space --shard "$i/$n" --journal "$out/fig12-shard$i.jsonl"
    fig16_space --shard "$i/$n" --journal "$out/fig16-shard$i.jsonl"
    step_summary "| shard $i/$n fig12 | $(mips_of_journal "$out/fig12-shard$i.jsonl") MIPS |"
    step_summary "| shard $i/$n fig16 | $(mips_of_journal "$out/fig16-shard$i.jsonl") MIPS |"
    ;;
merge)
    in="${1:?input dir}"
    out="${2:?output dir}"
    mkdir -p "$out"
    for fig in fig12 fig16; do
        resumes=()
        for j in "$in"/$fig-shard*.jsonl; do
            resumes+=(--resume "$j")
        done
        ${fig}_space "${resumes[@]}" --merge \
            --journal "$out/$fig.jsonl" --csv "$out/$fig.csv" \
            --fingerprint >"$out/$fig.fingerprint"
        got="$(cat "$out/$fig.fingerprint")"
        want="$(awk -v f="$fig" '$1 == f {print $2}' "$golden_file")"
        if [ "$got" != "$want" ]; then
            echo "FAIL: merged $fig fingerprint $got != golden $want" >&2
            echo "      (tools/ci_sweep.sh golden regenerates the" \
                "golden after an intentional simulation change)" >&2
            exit 1
        fi
        echo "OK: merged $fig fingerprint $got matches golden"
    done
    step_summary "| merged fig12 | fingerprint $(cat "$out/fig12.fingerprint") |"
    step_summary "| merged fig16 | fingerprint $(cat "$out/fig16.fingerprint") |"
    ;;
spacefp)
    # The space fingerprint identifies the exact grid (every point's
    # config, traces and budgets), which makes it the right CI cache
    # key: any grid change starts a fresh cache instead of mixing
    # entries from different scenario spaces into one artifact.
    echo "fig12 $(fig12_space --list-grid | awk 'NR==1 {print $NF}')"
    echo "fig16 $(fig16_space --list-grid | awk 'NR==1 {print $NF}')"
    ;;
warm)
    cache="${1:?cache dir}"
    out="${2:?output dir}"
    mkdir -p "$out"
    export HERMES_RESULT_CACHE="$cache"
    for pass in 1 2; do
        for fig in fig12 fig16; do
            ${fig}_space --journal "$out/$fig-pass$pass.jsonl" \
                --fingerprint >"$out/$fig-pass$pass.fp" \
                2>"$out/$fig-pass$pass.log"
            cat "$out/$fig-pass$pass.log" >&2
        done
    done
    for fig in fig12 fig16; do
        # Pass 2 must be answered entirely from the store...
        if ! grep -q "(0 simulated, " "$out/$fig-pass2.log"; then
            echo "FAIL: warm $fig rerun simulated points:" >&2
            cat "$out/$fig-pass2.log" >&2
            exit 1
        fi
        # ...and still reproduce pass 1 (and the pinned golden)
        # byte-for-byte: journals included, since cached results carry
        # even their host-perf payload back unchanged. A journal's
        # identity is its canonical (grid-index) form, which --merge
        # writes: appends land in completion order, and a threaded
        # pass 1 completes points out of the grid order in which the
        # all-cached pass 2 appends them (src/sweep/journal.hh).
        if ! cmp -s "$out/$fig-pass1.fp" "$out/$fig-pass2.fp"; then
            echo "FAIL: warm $fig fingerprint drifted across passes" >&2
            exit 1
        fi
        for pass in 1 2; do
            ${fig}_space --resume "$out/$fig-pass$pass.jsonl" --merge \
                --journal "$out/$fig-pass$pass.canonical.jsonl" \
                2>>"$out/$fig-pass$pass.log"
        done
        if ! cmp -s "$out/$fig-pass1.canonical.jsonl" \
            "$out/$fig-pass2.canonical.jsonl"; then
            echo "FAIL: warm $fig journal drifted across passes" >&2
            exit 1
        fi
        got="$(cat "$out/$fig-pass2.fp")"
        want="$(awk -v f="$fig" '$1 == f {print $2}' "$golden_file")"
        if [ "$got" != "$want" ]; then
            echo "FAIL: warm $fig fingerprint $got != golden $want" >&2
            exit 1
        fi
        echo "OK: warm $fig rerun simulated 0 points, fingerprint" \
            "$got matches golden"
    done
    step_summary "| warm rerun | 0 points simulated, fingerprints match golden |"
    ;;
warmup-warm)
    cache="${1:?warmup cache dir}"
    out="${2:?output dir}"
    mkdir -p "$out"
    # Keep ambient stores out of the gate: the point is the warmup
    # cache, and a result-store hit would skip simulation entirely.
    unset HERMES_RESULT_CACHE HERMES_WARMUP_CACHE
    warmlat_space --fingerprint >"$out/warmlat-base.fp" \
        2>"$out/warmlat-base.log"
    for pass in 1 2; do
        warmlat_space --warmup-cache "$cache" \
            --fingerprint >"$out/warmlat-pass$pass.fp" \
            2>"$out/warmlat-pass$pass.log"
        cat "$out/warmlat-pass$pass.log" >&2
    done
    # Cold pass: the shared identity warms once, the other point
    # restores; warm pass: both points restore, zero warmups.
    if ! grep -q "warmup-cache: 1 warmed, 1 restored" \
        "$out/warmlat-pass1.log"; then
        echo "FAIL: cold pass did not warm exactly once:" >&2
        cat "$out/warmlat-pass1.log" >&2
        exit 1
    fi
    if ! grep -q "warmup-cache: 0 warmed, 2 restored" \
        "$out/warmlat-pass2.log"; then
        echo "FAIL: warm pass re-ran a warmup:" >&2
        cat "$out/warmlat-pass2.log" >&2
        exit 1
    fi
    # Restored-from-checkpoint results must be byte-identical to the
    # uncached run — and to the pinned golden.
    for pass in 1 2; do
        if ! cmp -s "$out/warmlat-base.fp" "$out/warmlat-pass$pass.fp"; then
            echo "FAIL: warmup-cached pass $pass fingerprint differs" \
                "from the uncached run" >&2
            exit 1
        fi
    done
    got="$(cat "$out/warmlat-base.fp")"
    want="$(awk -v f=warmlat '$1 == f {print $2}' "$golden_file")"
    if [ "$got" != "$want" ]; then
        echo "FAIL: warmlat fingerprint $got != golden $want" >&2
        echo "      (tools/ci_sweep.sh golden regenerates the golden" \
            "after an intentional simulation change)" >&2
        exit 1
    fi
    echo "OK: warmup-warm warmed once, restored 3 points, fingerprint" \
        "$got matches golden"
    step_summary "| warmup-warm | 1 warmup, 3 restores, fingerprint matches golden |"
    ;;
golden)
    out="${1:?output dir}"
    mkdir -p "$out"
    fig12_space --journal "$out/fig12.jsonl" --csv "$out/fig12.csv" \
        --fingerprint >"$out/fig12.fingerprint"
    fig16_space --journal "$out/fig16.jsonl" --csv "$out/fig16.csv" \
        --fingerprint >"$out/fig16.fingerprint"
    warmlat_space --journal "$out/warmlat.jsonl" \
        --fingerprint >"$out/warmlat.fingerprint"
    {
        echo "# Pinned sweep fingerprints for the sharded CI figure"
        echo "# pipeline (tools/ci_sweep.sh); the merge of the 4 shard"
        echo "# journals must reproduce these exactly. Regenerate with"
        echo "# tools/ci_sweep.sh golden <dir> after an intentional"
        echo "# simulation-visible change."
        echo "fig12 $(cat "$out/fig12.fingerprint")"
        echo "fig16 $(cat "$out/fig16.fingerprint")"
        echo "warmlat $(cat "$out/warmlat.fingerprint")"
    } >"$golden_file"
    echo "wrote $golden_file:"
    grep -v '^#' "$golden_file"
    ;;
*)
    echo "unknown command '$cmd' (want" \
        "shard|merge|golden|spacefp|warm|warmup-warm)" >&2
    exit 2
    ;;
esac
