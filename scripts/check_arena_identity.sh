#!/usr/bin/env bash
# Arena + jobs identity gate: neither the trace arena nor the sweep's
# job count may change anything observable.
#
# For each sweep binary this runs one base configuration (arena on,
# MAB_BENCH_JOBS=[jobs]) and diffs it against:
#
#   - arena off  (MAB_TRACE_ARENA=0, same job count),
#   - jobs 1     (MAB_BENCH_JOBS=1: the serial sweep),
#
# asserting for every leg that:
#
#   1. stdout is byte-identical to the base leg, and
#   2. for binaries that emit a --json report, the reports are
#      byte-identical after dropping the top-level "meta" block
#      (which by design records run-local facts: wall-clock samples,
#      the command line and the arena hit/miss counters themselves).
#
# Usage:
#   scripts/check_arena_identity.sh <build-bench-dir> [jobs] [bench...]
#
# With no [bench...] arguments, every bench-smoke sweep from
# bench/CMakeLists.txt is checked. Scale defaults to the smoke scale
# (MAB_BENCH_SCALE=0.01); override via the environment.
set -euo pipefail

bench_dir=${1:?usage: check_arena_identity.sh <build-bench-dir> [jobs] [bench...]}
jobs=${2:-1}
if [ $# -ge 2 ]; then shift 2; else shift 1; fi

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=(
        bench_fig2_pythia_actions bench_fig5_pg_policy_space
        bench_fig7_exploration bench_fig8_singlecore
        bench_fig9_timeliness bench_fig10_bandwidth
        bench_fig11_altcache bench_fig12_multilevel
        bench_fig13_smt_scurve bench_fig14_fourcore
        bench_fig15_rename bench_table8_prefetch_algos
        bench_table9_smt_algos bench_ablation_hparams
        bench_ablation_normalization bench_ablation_rrrestart
        bench_ablation_step bench_ext_algorithms bench_ext_joint
        bench_drift_scurve
    )
fi

export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}
export MAB_BENCH_JOBS=$jobs

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Binaries whose writeJsonReport() path is wired up (grep
# writeJsonReport bench/*.cc to regenerate this list).
json_capable() {
    case "$1" in
    bench_fig8_singlecore | bench_fig9_timeliness | \
        bench_table8_prefetch_algos | bench_table9_smt_algos | \
        bench_drift_scurve)
        return 0
        ;;
    esac
    return 1
}

strip_meta() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc.pop("meta", None)
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
EOF
}

fail=0
for b in "${benches[@]}"; do
    exe="$bench_dir/$b"
    if [ ! -x "$exe" ]; then
        echo "MISSING  $b (not built at $exe)" >&2
        fail=1
        continue
    fi

    # run_leg <leg> [VAR=VAL...]: one run of $exe under the given
    # environment overrides, stdout and --json captured per leg. The
    # json-report path prints its destination; mask it so stdout
    # compares clean while the reports are diffed separately.
    run_leg() {
        local leg=$1
        shift
        local json_args=()
        if json_capable "$b"; then
            json_args=(--json "$tmp/$b.$leg.json")
        fi
        env "$@" "$exe" "${json_args[@]}" >"$tmp/$b.$leg.txt" 2>&1
        sed -i "s#$tmp/$b\.$leg\.json#<json>#" "$tmp/$b.$leg.txt"
        if json_capable "$b"; then
            strip_meta "$tmp/$b.$leg.json" \
                "$tmp/$b.$leg.stripped.json"
        fi
    }

    # compare_leg <leg> <description>: diff the leg against base.
    compare_leg() {
        local leg=$1 what=$2
        if ! cmp -s "$tmp/$b.base.txt" "$tmp/$b.$leg.txt"; then
            echo "DIFF     $b: stdout differs $what" >&2
            diff "$tmp/$b.base.txt" "$tmp/$b.$leg.txt" \
                | head -20 >&2 || true
            ok=0
        fi
        if json_capable "$b"; then
            if ! cmp -s "$tmp/$b.base.stripped.json" \
                "$tmp/$b.$leg.stripped.json"; then
                echo "DIFF     $b: --json report differs $what" \
                    "(modulo meta)" >&2
                diff "$tmp/$b.base.stripped.json" \
                    "$tmp/$b.$leg.stripped.json" | head -20 >&2 || true
                ok=0
            fi
        fi
    }

    ok=1
    run_leg base
    run_leg off MAB_TRACE_ARENA=0
    compare_leg off "arena on vs off (jobs=$jobs)"
    run_leg j1 MAB_BENCH_JOBS=1
    compare_leg j1 "jobs 1 vs jobs $jobs"

    if [ "$ok" -eq 1 ]; then
        echo "IDENTICAL  $b (jobs=$jobs vs arena off, jobs 1)"
    else
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "arena identity check FAILED" >&2
    exit 1
fi
echo "arena+jobs identity check passed: ${#benches[@]} sweep(s), jobs=$jobs"
