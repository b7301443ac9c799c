#!/usr/bin/env bash
# Persistent trace-arena gate: cold and warm starts from one
# MAB_TRACE_ARENA_DIR spill directory.
#
# Two checks on bench_fig8_singlecore, each against a base run with
# no arena directory:
#
#   1. Cold start — the first run against an empty arena directory
#      must generate (genMs > 0) and spill every trace it needs
#      (fileSpills > 0, fileHits = 0) and still match the dirless run
#      byte-for-byte (stdout, and the --json report modulo meta).
#   2. Warm start — the second run over the same directory must do
#      ZERO trace generation (genMs = 0, fileSpills = 0,
#      fileHits > 0) and again match byte-for-byte.
#
# Usage:
#   scripts/check_arena_warmstart.sh <build-bench-dir>
#
# Scale defaults to the smoke scale (MAB_BENCH_SCALE=0.01); override
# via the environment.
set -euo pipefail

bench_dir=${1:?usage: check_arena_warmstart.sh <build-bench-dir>}
exe="$bench_dir/bench_fig8_singlecore"
[ -x "$exe" ] || {
    echo "missing binary: $exe" >&2
    exit 1
}

export MAB_BENCH_SCALE=${MAB_BENCH_SCALE:-0.01}
export MAB_BENCH_JOBS=${MAB_BENCH_JOBS:-2}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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

# assert_arena <report.json> <mode:cold|warm>
assert_arena() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    arena = json.load(f)["meta"]["traceArena"]
mode = sys.argv[2]
def fail(msg):
    print(f"FAIL {mode} start: {msg}: {arena}", file=sys.stderr)
    sys.exit(1)
if not arena["dir"]:
    fail("meta.traceArena.dir is empty")
if mode == "cold":
    if arena["fileSpills"] == 0:
        fail("a cold run must spill its traces")
    if arena["fileHits"] != 0:
        fail("a cold run cannot hit spill files")
    if not arena["genMs"] > 0:
        fail("a cold run must count its trace generation time")
else:
    if arena["fileHits"] == 0:
        fail("a warm run must load spilled traces")
    if arena["fileSpills"] != 0:
        fail("a warm run must not regenerate anything")
    if arena["genMs"] != 0:
        fail("a warm run must spend zero time generating")
if arena["fileRejects"] != 0:
    fail("no run here may reject a spill file")
print(f"OK   {mode} start: spills={arena['fileSpills']}"
      f" hits={arena['fileHits']} genMs={arena['genMs']}")
EOF
}

echo "== base: no arena directory =="
"$exe" --json "$tmp/base.json" >"$tmp/base.txt" 2>&1
sed -i "s#$tmp/base\.json#<json>#" "$tmp/base.txt"
strip_meta "$tmp/base.json" "$tmp/base.stripped.json"

fail=0

echo "== 1/2. cold then warm start over one arena directory =="
dir="$tmp/persist"
mkdir -p "$dir"
for mode in cold warm; do
    MAB_TRACE_ARENA_DIR=$dir "$exe" --json "$tmp/$mode.json" \
        >"$tmp/$mode.txt" 2>&1
    sed -i "s#$tmp/$mode\.json#<json>#" "$tmp/$mode.txt"
    strip_meta "$tmp/$mode.json" "$tmp/$mode.stripped.json"
    if ! cmp -s "$tmp/base.txt" "$tmp/$mode.txt"; then
        echo "FAIL $mode-start stdout differs from dirless run:" >&2
        diff "$tmp/base.txt" "$tmp/$mode.txt" | head -20 >&2 || true
        fail=1
    fi
    if ! cmp -s "$tmp/base.stripped.json" "$tmp/$mode.stripped.json"; then
        echo "FAIL $mode-start --json differs (modulo meta)" >&2
        fail=1
    fi
    assert_arena "$tmp/$mode.json" "$mode" || fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "arena warm-start check FAILED" >&2
    exit 1
fi
echo "arena warm-start check passed"
