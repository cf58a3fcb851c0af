#!/usr/bin/env bash
# End-to-end smoke test of the darc cluster, in two acts over the real
# binaries (darc coordinator + dard workers + darminer client).
#
# Act 1 (worker death): start a coordinator over two workers with the
# health prober effectively off (-health-interval 1h), then kill -9 one
# worker AFTER the pool is formed but before dispatch. The coordinator
# still believes the corpse healthy, so the ingest hands it a shard,
# discovers the death mid-ingest, marks the worker down and requeues
# the shard onto the survivor — asserted via the ingest ack's retries
# field, cluster_shards_requeued_total / cluster_worker_markdowns_total
# on /metrics, and /v1/cluster/workers health rows.
#
# Both acts leave the thresholds to darc, which derives them from the
# advisor's sample of the body and pins them on every shard request, a
# requeued one included.
#
# Act 2 (determinism): rerun the identical ingest (-shards pinned to 4)
# against a fresh coordinator with a fully healthy pool. The cluster
# determinism contract (DESIGN.md §14) demands the merged .acfsum
# artifact and the served query JSON be byte-identical between the two
# acts: worker death, retries and requeues must never leak into the
# mined output. An ingest pinned to the thresholds `darminer ingest`
# derives over the whole dataset must give the same artifact again, so
# the shard act 1 requeued ran under darc's derived thresholds and they
# are the whole relation's. Last, the dataset with one interval cell
# replaced by `x` must be answered 400 and leave no artifact anywhere.
# Run via `make clustersmoke`.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke_lib.sh

TMP=$(mktemp -d)
PIDS=()
cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$TMP/dard" ./cmd/dard
go build -o "$TMP/darc" ./cmd/darc
go build -o "$TMP/darminer" ./cmd/darminer

DATASET=cmd/darminer/testdata/interval_input.csv

# start_worker <n>: a dard worker with its own data dir; sets Wn_PID
# and Wn_ADDR.
start_worker() {
    local n=$1
    start_daemon "$TMP/dard" "$TMP/worker$n.log" -data "$TMP/worker$n"
    PIDS+=("$DAEMON_PID")
    printf -v "W${n}_PID" '%s' "$DAEMON_PID"
    printf -v "W${n}_ADDR" '%s' "$ADDR"
}

# start_darc <n> <workers>: a coordinator with shards pinned to 4 so
# both acts share one shard plan, fast requeue backoff, and the
# background prober parked (the act-1 kill must be discovered by the
# dispatcher itself, mid-ingest, not by a probe beforehand).
start_darc() {
    local n=$1 workers=$2
    start_daemon "$TMP/darc" "$TMP/darc$n.log" -data "$TMP/darc$n" \
        -workers "$workers" -shards 4 -health-interval 1h \
        -backoff 5ms -backoff-cap 50ms
    PIDS+=("$DAEMON_PID")
    printf -v "DARC${n}_PID" '%s' "$DAEMON_PID"
    printf -v "DARC${n}_ADDR" '%s' "$ADDR"
}

# cluster_ingest <coordinator-addr> <out> [<query>]: shard the golden
# dataset across the pool, with any extra query parameters.
cluster_ingest() {
    curl -sfS -X POST --data-binary @"$DATASET" \
        "http://$1/v1/cluster/ingest?name=smoke${3:-}" >"$2"
    grep -q '"shards": 4' "$2" || { echo "unexpected cluster ingest ack:"; cat "$2"; exit 1; }
}

# served_query <coordinator-addr> <out>: query the merged summary,
# durations stripped.
served_query() {
    "$TMP/darminer" query -addr "http://$1" -minsup 0.2 -degree 1 -json smoke \
        | grep -v '"durationMs"' >"$2"
}

echo "== [act 1] starting two workers and the coordinator"
start_worker 1
start_worker 2
start_darc 1 "http://$W1_ADDR,http://$W2_ADDR"
echo "   darc on $DARC1_ADDR over workers $W1_ADDR, $W2_ADDR"

echo "== [act 1] kill -9 worker 2 (coordinator still believes it healthy)"
kill_hard "$W2_PID"

echo "== [act 1] sharded ingest must survive via requeue onto worker 1"
cluster_ingest "$DARC1_ADDR" "$TMP/ingest1.json"
RETRIES=$(grep -o '"retries": [0-9]*' "$TMP/ingest1.json" | grep -o '[0-9]*$')
[ "${RETRIES:-0}" -ge 1 ] || {
    echo "FAIL: ingest ack retries = ${RETRIES:-missing}, want >= 1 (no shard hit the corpse?)"
    cat "$TMP/ingest1.json"; exit 1
}

echo "== [act 1] checking cluster metrics and worker health"
curl -sfS "http://$DARC1_ADDR/metrics" >"$TMP/metrics1.json"
metric_at_least "$TMP/metrics1.json" cluster_ingests_total 1
metric_at_least "$TMP/metrics1.json" cluster_shards_requeued_total 1
metric_at_least "$TMP/metrics1.json" cluster_worker_markdowns_total 1
curl -sfS "http://$DARC1_ADDR/v1/cluster/workers" >"$TMP/workers1.json"
grep -q '"healthy": false' "$TMP/workers1.json" || {
    echo "FAIL: dead worker not marked down:"; cat "$TMP/workers1.json"; exit 1
}

served_query "$DARC1_ADDR" "$TMP/query1.stripped"
cp "$TMP/darc1/smoke.acfsum" "$TMP/artifact1.acfsum"

echo "== [act 1] draining the survivors"
stop_daemon "$DARC1_PID" "$TMP/darc1.log"
stop_daemon "$W1_PID" "$TMP/worker1.log"

echo "== [act 2] same ingest against a fresh, fully healthy pool"
start_worker 3
start_worker 4
start_darc 2 "http://$W3_ADDR,http://$W4_ADDR"
echo "   darc on $DARC2_ADDR over workers $W3_ADDR, $W4_ADDR"
cluster_ingest "$DARC2_ADDR" "$TMP/ingest2.json"
served_query "$DARC2_ADDR" "$TMP/query2.stripped"

echo "== [act 2] merged artifact must be byte-identical despite act 1's worker death"
if ! cmp "$TMP/artifact1.acfsum" "$TMP/darc2/smoke.acfsum"; then
    echo "FAIL: requeued ingest produced a different .acfsum than the healthy-pool ingest"
    exit 1
fi

echo "== [act 2] served query JSON must match act 1 (durationMs stripped)"
if ! diff -u "$TMP/query1.stripped" "$TMP/query2.stripped"; then
    echo "FAIL: served rules diverge between the worker-death run and the healthy run"
    exit 1
fi

echo "== [act 2] an ingest pinned to the whole dataset's thresholds must match act 1"
D0S=$("$TMP/darminer" ingest -o "$TMP/local.acfsum" "$DATASET" |
    sed -n 's/^derived d0 per attribute: \[\(.*\)\]$/\1/p' | tr ' ' ',' | sed 's/+/%2B/g')
[ -n "$D0S" ] || { echo "FAIL: darminer ingest derived no thresholds"; exit 1; }
cluster_ingest "$DARC2_ADDR" "$TMP/ingest3.json" "&d0s=$D0S"
if ! cmp "$TMP/artifact1.acfsum" "$TMP/darc2/smoke.acfsum"; then
    echo "FAIL: the requeued ingest's thresholds differ from the whole dataset's ($D0S)"
    exit 1
fi

echo "== [act 2] a body with a non-numeric interval cell must be rejected with 400"
sed '2s/^[^,]*/x/' "$DATASET" >"$TMP/bad.csv"
STATUS=$(curl -sS -o "$TMP/bad.json" -w '%{http_code}' -X POST --data-binary @"$TMP/bad.csv" \
    "http://$DARC2_ADDR/v1/cluster/ingest?name=bad")
[ "$STATUS" = 400 ] || { echo "FAIL: bad body answered $STATUS, want 400:"; cat "$TMP/bad.json"; exit 1; }
for dir in "$TMP/darc2" "$TMP/worker3" "$TMP/worker4"; do
    [ ! -e "$dir/bad.acfsum" ] || { echo "FAIL: the rejected ingest left $dir/bad.acfsum"; exit 1; }
done

stop_daemon "$DARC2_PID" "$TMP/darc2.log"
stop_daemon "$W3_PID" "$TMP/worker3.log"
stop_daemon "$W4_PID" "$TMP/worker4.log"

echo "PASS: cluster smoke (requeue after worker death under darc's derived thresholds, bit-identical artifact and query across runs, bad body rejected)"
