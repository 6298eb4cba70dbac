#!/bin/sh
# End-to-end CLI round trip: generate -> insights -> figures -> advise,
# then the out-of-core mode: a record-sharded analyze must write the same
# report bytes as the resident one, the retired telemetry-shard and
# kernel-selection flags must be rejected as usage errors rather than
# ignored, and a command that needs resident records must refuse
# --record-shards before doing work.
set -e
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
"$CLI" generate --out "$DIR" --scale 0.12 --seed 9 --util-vms 2500
"$CLI" insights --in "$DIR"
"$CLI" figures --in "$DIR"
test -s "$DIR/fig1a_vms_per_subscription.csv"
test -s "$DIR/fig5d_pattern_shares.csv"
test -s "$DIR/fig6_weekly_private.csv"
"$CLI" advise --in "$DIR" --cloud public | grep -q "adopt-spot"
"$CLI" analyze --in "$DIR" --report "$DIR/a.md"
"$CLI" analyze --in "$DIR" --record-shards 4 --shard-budget-mib 0 --no-cache \
    --report "$DIR/b.md"
cmp "$DIR/a.md" "$DIR/b.md"
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
