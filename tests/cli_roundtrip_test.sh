#!/bin/sh
# End-to-end CLI round trip: generate -> insights -> figures -> advise
# (whose advisories must not depend on --threads), then the out-of-core
# mode: a record-sharded analyze must write the same report bytes as the
# resident one, uncached and cached (a cache hit streams the stored
# snapshot into the shards, a miss streams from the importer and stores
# no trace, and neither leaves anything but trace and kb artifacts in the
# cache), the retired telemetry-shard and kernel-selection flags must be
# rejected as usage errors rather than ignored, and a command that needs
# resident records must refuse --record-shards before doing work. Along
# the way --metrics-out shows that only commands that read many rows
# build a telemetry panel, and the cache holds exactly one trace and one
# kb artifact (never a panel).
set -e
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# expect_builds FILE N: the metrics snapshot FILE counts N panel builds.
expect_builds() {
    if ! grep -Eq "\"panel\.builds\": $2([^0-9]|\$)" "$1"; then
        echo "$1: want panel.builds $2, got:" \
             "$(grep -o '"panel.builds": [0-9]*' "$1")" >&2
        exit 1
    fi
}

"$CLI" generate --out "$DIR" --scale 0.12 --seed 9 --util-vms 2500 \
    --cache-dir "$DIR/cache" --metrics-out "$DIR/generate.json"
expect_builds "$DIR/generate.json" 0
traces=$(find "$DIR/cache" -type f -name 'trace-*.bin' | wc -l)
kbs=$(find "$DIR/cache" -type f -name 'kb-*.bin' | wc -l)
files=$(find "$DIR/cache" -type f | wc -l)
if [ "$traces" -ne 1 ] || [ "$kbs" -ne 1 ] || [ "$files" -ne 2 ]; then
    echo "generate --cache-dir: want one trace and one kb artifact, got:" >&2
    ls -l "$DIR/cache" >&2
    exit 1
fi
"$CLI" insights --in "$DIR"
"$CLI" figures --in "$DIR"
test -s "$DIR/fig1a_vms_per_subscription.csv"
test -s "$DIR/fig5d_pattern_shares.csv"
test -s "$DIR/fig6_weekly_private.csv"
"$CLI" advise --in "$DIR" --cloud public --metrics-out "$DIR/advise.json" \
    | grep -q "adopt-spot"
expect_builds "$DIR/advise.json" 0
# The advisor's platform evaluations fan out over --threads and read rows
# through the no-panel fill path here. The stage table above the first
# advisory carries timings, so compare from that line on.
for threads in 1 8; do
    "$CLI" advise --in "$DIR" --threads "$threads" \
        | sed -n '/^Workload-aware advisory/,$p' >"$DIR/advise-$threads.txt"
done
test -s "$DIR/advise-1.txt"
cmp "$DIR/advise-1.txt" "$DIR/advise-8.txt"
"$CLI" analyze --in "$DIR" --report "$DIR/a.md" \
    --metrics-out "$DIR/analyze.json"
expect_builds "$DIR/analyze.json" 1
"$CLI" analyze --in "$DIR" --record-shards 4 --shard-budget-mib 0 --no-cache \
    --report "$DIR/b.md"
cmp "$DIR/a.md" "$DIR/b.md"
# expect_artifacts_only CACHE: CACHE holds trace-*.bin and kb-*.bin files
# and nothing else (no spill directory, no other file).
expect_artifacts_only() {
    others=$(find "$1" -mindepth 1 ! \( -type f \( -name 'trace-*.bin' \
        -o -name 'kb-*.bin' \) \) | wc -l)
    if [ "$others" -ne 0 ]; then
        echo "$1: want only trace and kb artifacts, got:" >&2
        find "$1" -mindepth 1 >&2
        exit 1
    fi
}
# The cache the resident runs above filled holds this directory's
# CSV-mode trace: a record-sharded run streams that snapshot into its
# shards. (The default budget keeps this run cheap under TSan; the runs
# around it page at budget 0.)
"$CLI" analyze --in "$DIR" --record-shards 4 --report "$DIR/c.md" \
    >"$DIR/c.out"
if ! grep -Eq '^trace +hit ' "$DIR/c.out"; then
    echo "cached record-sharded analyze: want a trace hit, got:" >&2
    cat "$DIR/c.out" >&2
    exit 1
fi
cmp "$DIR/a.md" "$DIR/c.md"
expect_artifacts_only "$DIR/.cloudlens-cache"
# generate's cache holds no CSV-mode trace: the run streams from the
# importer and stores none, so the cache keeps generate's two files.
"$CLI" analyze --in "$DIR" --record-shards 4 --shard-budget-mib 0 \
    --cache-dir "$DIR/cache" --report "$DIR/d.md"
cmp "$DIR/a.md" "$DIR/d.md"
expect_artifacts_only "$DIR/cache"
if [ "$(find "$DIR/cache" -type f | wc -l)" -ne 2 ]; then
    echo "record-sharded miss stored an artifact:" >&2
    ls -l "$DIR/cache" >&2
    exit 1
fi
rc=0
"$CLI" insights --in "$DIR" --panel-shards 4 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "retired flag: insights exited $rc, want 2 (unknown flag)" >&2
    exit 1
fi
for retired in "--kernels avx2" "--kernel-mode fast"; do
    rc=0
    # shellcheck disable=SC2086  # split the flag from its value
    "$CLI" analyze --in "$DIR" $retired >/dev/null 2>"$DIR/err" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q "unknown flag: ${retired% *}" "$DIR/err"
    then
        echo "retired flag: analyze $retired exited $rc, want 2" \
             "(unknown flag)" >&2
        exit 1
    fi
done
rc=0
"$CLI" advise --in "$DIR" --record-shards 4 --no-cache >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "advise --record-shards exited $rc, want 2 (usage error)" >&2
    exit 1
fi
echo "CLI round trip OK"
