#!/usr/bin/env bash
# Tier-1 CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
# Every crate's unit tests and the crates/server/tests integration
# suites (transport, WAL, recovery, replication). The default test
# profile reuses the previous stage's build.
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> bi_runtimes profile smoke-run"
SMOKE_JSON="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
SERVICE_JSON="$(mktemp /tmp/service_smoke.XXXXXX.json)"
SERVER_OUT="$(mktemp /tmp/server_smoke.XXXXXX.out)"
ACCESS_LOG="$(mktemp /tmp/server_smoke.XXXXXX.jsonl)"
STALL_OUT="$(mktemp /tmp/stall_smoke.XXXXXX.out)"
STALL_LOG="$(mktemp /tmp/stall_smoke.XXXXXX.jsonl)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -f "$SMOKE_JSON" "$SERVICE_JSON" "$SERVER_OUT" "$ACCESS_LOG" \
        "$STALL_OUT" "$STALL_LOG"
}
trap cleanup EXIT
SNB_BENCH_OUT="$SMOKE_JSON" \
  cargo run -q --release -p snb-bench --bin bi_runtimes -- 0.001 --profile \
  > /dev/null
# Schema check: the emitted JSON must carry every operator-counter field
# for all 25 queries at every sweep point (25 queries x 3 thread counts).
for key in min_us mean_us p50_us max_us morsels rows_scanned index_hits \
           index_fallbacks fallback_rows topk_offered topk_pruned \
           prune_rate edges_traversed; do
  count="$(grep -o "\"$key\":" "$SMOKE_JSON" | wc -l)"
  if [ "$count" -ne 75 ]; then
    echo "BENCH_bi.json schema check failed: key '$key' appears $count times, want 75" >&2
    exit 1
  fi
done
# A fresh bulk-loaded store must never take the linear-scan fallback.
if grep -qE '"index_fallbacks": [1-9]' "$SMOKE_JSON"; then
  echo "BENCH_bi.json reports stale-index fallbacks on a fresh store" >&2
  exit 1
fi
# PR 3: the JSON must carry the run-metadata block.
grep -q '"meta": {"git_commit":' "$SMOKE_JSON" || {
  echo "BENCH_bi.json is missing the meta block" >&2; exit 1; }

echo "==> partition-sweep determinism (store shards 1/2/4)"
# bi_runtimes sweeps the partition count over the SNB_PARTITIONS values
# {1, 2, 4} and embeds one folded fingerprint per point — sharding must
# be invisible in the results, so exactly one distinct value may appear.
for p in 1 2 4; do
  grep -q "\"partitions\": $p," "$SMOKE_JSON" || {
    echo "BENCH_bi.json partition_sweep is missing partitions=$p" >&2; exit 1; }
done
distinct="$(grep -o '"fingerprint": "0x[0-9a-f]*"' "$SMOKE_JSON" | sort -u | wc -l)"
if [ "$distinct" -ne 1 ]; then
  echo "partition sweep fingerprints diverge ($distinct distinct values)" >&2
  exit 1
fi
# Run metadata must record the resolved partition knob.
grep -q '"partitions_resolved":' "$SMOKE_JSON" || {
  echo "BENCH_bi.json meta is missing partitions_resolved" >&2; exit 1; }

echo "==> service_load in-process smoke (oracle verification, 2 shards)"
# Closed-loop drive with per-request result verification against the
# in-process power-run oracle; a nonzero exit means protocol errors or
# a fingerprint divergence. SNB_PARTITIONS=2 serves from a two-shard
# PartitionedStore while the oracle is unpartitioned — any divergence
# introduced by sharding fails the run.
SNB_SERVICE_OUT="$SERVICE_JSON" SNB_PARTITIONS=2 \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 \
  --clients 4 --duration 2s > /dev/null
grep -q '"partitions": 2' "$SERVICE_JSON" || {
  echo "BENCH_service.json config is missing the partition count" >&2; exit 1; }
grep -q '"partitions_resolved": 2' "$SERVICE_JSON" || {
  echo "BENCH_service.json meta is missing partitions_resolved" >&2; exit 1; }

echo "==> interference smoke (lock-free read path under concurrent writes)"
# E15: a write-free baseline window, then the same read load while the
# writer publishes store versions. The baseline must publish nothing
# (asserted in-process), a version must be published in the write
# window (ditto), and no snapshot reader may ever hit the retry safety
# valve — reader_blocked > 0 means the read path regressed to blocking.
INTERF_JSON="$(mktemp /tmp/interf_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$INTERF_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 \
  --interference --clients 2 --duration 1500ms > /dev/null
for key in interference baseline with_writes read_p99_ratio \
           versions_published peak_live_snapshots store_version; do
  grep -q "\"$key\":" "$INTERF_JSON" || {
    echo "interference JSON is missing key '$key'" >&2
    rm -f "$INTERF_JSON"; exit 1; }
done
grep -q '"reader_blocked": 0' "$INTERF_JSON" || {
  echo "a snapshot reader hit the blocked safety valve during interference" >&2
  rm -f "$INTERF_JSON"; exit 1; }
rm -f "$INTERF_JSON"

echo "==> BENCH_service.json block merge (two modes into one file)"
# Each service_load mode owns one top-level block of the output file and
# must leave every other block in place: run two modes into one file and
# require both blocks, each stamped with its own meta.
MERGE_JSON="$(mktemp /tmp/merge_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$MERGE_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 \
  --clients 1 --duration 500ms > /dev/null
SNB_SERVICE_OUT="$MERGE_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 \
  --interference --clients 1 --duration 500ms > /dev/null
for key in load interference; do
  grep -q "^  \"$key\": {" "$MERGE_JSON" || {
    echo "BENCH_service.json lost the '$key' block when another mode wrote" >&2
    rm -f "$MERGE_JSON"; exit 1; }
done
metas="$(grep -o '"meta": {"git_commit":' "$MERGE_JSON" | wc -l)"
if [ "$metas" -ne 2 ]; then
  echo "BENCH_service.json blocks carry $metas meta stamps, want 2" >&2
  rm -f "$MERGE_JSON"; exit 1
fi
rm -f "$MERGE_JSON"

echo "==> snb-server smoke (overload shed, deadline miss, graceful shutdown)"
# Ephemeral port, one worker, an undersized queue: the overload burst
# must shed (not buffer without bound) and the microsecond-deadline
# burst must answer DeadlineExceeded (not hang).
SNB_ACCESS_LOG="$ACCESS_LOG" \
  cargo run -q --release -p snb-server --bin snb-server -- 0.001 \
  --port 0 --workers 1 --queue-cap 8 > "$SERVER_OUT" 2>/dev/null &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 240); do
  ADDR="$(grep -o '127\.0\.0\.1:[0-9]*' "$SERVER_OUT" | head -1 || true)"
  [ -n "$ADDR" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "snb-server exited before listening" >&2; exit 1
  fi
  sleep 0.5
done
[ -n "$ADDR" ] || { echo "snb-server never started listening" >&2; exit 1; }
SNB_SERVICE_OUT="$SERVICE_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 \
  --clients 4 --duration 2s --connect "$ADDR" --exercise-edges > /dev/null
# Schema + edge-case assertions on BENCH_service.json.
for key in meta config latency_us throughput outcomes p50 p95 p99 \
           offered_qps achieved_qps burst_shed burst_deadline_missed; do
  grep -q "\"$key\":" "$SERVICE_JSON" || {
    echo "BENCH_service.json is missing key '$key'" >&2; exit 1; }
done
shed="$(grep -o '"burst_shed": [0-9]*' "$SERVICE_JSON" | grep -o '[0-9]*$')"
missed="$(grep -o '"burst_deadline_missed": [0-9]*' "$SERVICE_JSON" | grep -o '[0-9]*$')"
[ "$shed" -ge 1 ] || { echo "overload burst shed nothing (shed=$shed)" >&2; exit 1; }
[ "$missed" -ge 1 ] || { echo "deadline burst missed nothing (missed=$missed)" >&2; exit 1; }
# Graceful drain-then-shutdown: SIGTERM must produce a clean exit and a
# flushed access log.
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "snb-server did not exit cleanly on SIGTERM" >&2; exit 1
fi
SERVER_PID=""
[ -s "$ACCESS_LOG" ] || { echo "access log was not flushed on shutdown" >&2; exit 1; }
grep -q '"outcome": "ok"' "$ACCESS_LOG" || {
  echo "access log has no served requests" >&2; exit 1; }
# Every record must carry the snapshot-read provenance fields.
grep -q '"store_version":' "$ACCESS_LOG" || {
  echo "access log records are missing store_version" >&2; exit 1; }
grep -q '"snapshot_age_us":' "$ACCESS_LOG" || {
  echo "access log records are missing snapshot_age_us" >&2; exit 1; }

echo "==> chaos recovery smoke (WAL + SIGKILL + dedupe + oracle equality)"
# Gate on the WAL checksum/truncation unit tests before paying for the
# full chaos run — a broken record format makes the rest meaningless.
cargo test -q --release -p snb-server --lib wal:: > /dev/null
# The harness spawns snb-server itself (ephemeral port, temp WAL dir),
# SIGKILLs it at four injected fault points (WAL tears, apply panic,
# torn store-image write), restarts it, resubmits unacked batches, and
# verifies the recovered store against an acked-batches oracle over all
# 25 BI queries. Nonzero exit = lost ack, duplicate application, torn
# image landing, or result divergence.
CHAOS_JSON="$(mktemp /tmp/chaos_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$CHAOS_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 --chaos \
  --server-bin target/release/snb-server > /dev/null
for key in chaos phases dedupes lost_acks queries_verified mismatches; do
  grep -q "\"$key\":" "$CHAOS_JSON" || {
    echo "chaos JSON is missing key '$key'" >&2; rm -f "$CHAOS_JSON"; exit 1; }
done
grep -q '"lost_acks": 0' "$CHAOS_JSON" || {
  echo "chaos run lost an acknowledged batch" >&2; rm -f "$CHAOS_JSON"; exit 1; }
grep -q '"mismatches": 0' "$CHAOS_JSON" || {
  echo "recovered store diverges from the acked-batches oracle" >&2
  rm -f "$CHAOS_JSON"; exit 1; }
rm -f "$CHAOS_JSON"

echo "==> loading smoke (streaming ingest + packed strings + image recovery, E19)"
# The binary itself hard-fails below the 2x person-string gate, on a
# broken recovery curve (image tail > snapshot interval), and on
# oracle divergence at the deepest history; CI re-checks the JSON
# schema and pins an absolute bytes-per-person ceiling so a footprint
# regression can't hide behind a still-passing ratio.
LOADING_JSON="$(mktemp /tmp/loading_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$LOADING_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 --loading \
  > /dev/null
for key in loading streaming materialized strings recovery oracle \
    person_ratio bytes_per_person_packed verified_history peak_rss_bytes; do
  grep -q "\"$key\":" "$LOADING_JSON" || {
    echo "loading JSON is missing key '$key'" >&2; rm -f "$LOADING_JSON"; exit 1; }
done
# Image-anchored recovery points must replay a bounded tail (0 here:
# every tested history lands exactly on a compaction point).
grep -q '"tail_replayed": 0' "$LOADING_JSON" || {
  echo "no image-anchored recovery point with a bounded tail" >&2
  rm -f "$LOADING_JSON"; exit 1; }
BPP="$(sed -n 's/.*"bytes_per_person_packed": \([0-9.]*\).*/\1/p' "$LOADING_JSON" | head -1)"
awk -v bpp="$BPP" 'BEGIN { exit !(bpp > 0 && bpp <= 120) }' || {
  echo "packed person-string footprint regressed: $BPP bytes/person (ceiling 120)" >&2
  rm -f "$LOADING_JSON"; exit 1; }
rm -f "$LOADING_JSON"

echo "==> read-path chaos (conn.read.stall -> typed conn_stalled outcome)"
# A connection goes quiet while the armed stall wedges its handler in
# the read path; the idle deadline must trip and the close must land in
# the access log with the typed conn_stalled outcome (not a hang, not a
# silent drop).
SNB_ACCESS_LOG="$STALL_LOG" SNB_FAULTS='conn.read.stall=stall:800@h1' \
  cargo run -q --release -p snb-server --bin snb-server -- 0.001 \
  --port 0 --workers 1 --conn-timeout-ms 300 > "$STALL_OUT" 2>/dev/null &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 240); do
  ADDR="$(grep -o '127\.0\.0\.1:[0-9]*' "$STALL_OUT" | head -1 || true)"
  [ -n "$ADDR" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "snb-server (stall stage) exited before listening" >&2; exit 1
  fi
  sleep 0.5
done
[ -n "$ADDR" ] || { echo "snb-server (stall stage) never listened" >&2; exit 1; }
PORT="${ADDR##*:}"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
sleep 2
exec 3<&- 3>&-
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "snb-server (stall stage) did not exit cleanly on SIGTERM" >&2; exit 1
fi
SERVER_PID=""
grep -q '"outcome": "conn_stalled"' "$STALL_LOG" || {
  echo "access log has no conn_stalled outcome for the stalled connection" >&2
  exit 1; }

echo "==> connection sweep smoke (reactor ladder + starvation gate)"
# E16 on a small ladder: the reactor must hold every level's connections
# concurrently open (conn_peak is asserted in-process), the per-level
# JSON must carry the full latency/QPS/per-lane schema, and the BI-flood
# phase must shed zero short reads — the sweep binary itself exits
# nonzero if the starvation gate is violated. The read path must stay
# lock-free throughout (reader_blocked == 0).
SWEEP_JSON="$(mktemp /tmp/sweep_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$SWEEP_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 \
  --sweep --sweep-levels 1,8,64 --sweep-duration 500ms > /dev/null
for key in sweep levels flood connections error_rate qps p50_us p90_us \
           p99_us lanes short heavy write short_shed conn_peak; do
  grep -q "\"$key\":" "$SWEEP_JSON" || {
    echo "sweep JSON is missing key '$key'" >&2; rm -f "$SWEEP_JSON"; exit 1; }
done
grep -q '"short_shed": 0' "$SWEEP_JSON" || {
  echo "short reads were shed during the BI-flood phase" >&2
  rm -f "$SWEEP_JSON"; exit 1; }
grep -q '"reader_blocked": 0' "$SWEEP_JSON" || {
  echo "a snapshot reader hit the blocked safety valve during the sweep" >&2
  rm -f "$SWEEP_JSON"; exit 1; }
rm -f "$SWEEP_JSON"

echo "==> replication smoke (log shipping, SIGKILL failover, oracle equality)"
# E17: one primary + two follower processes over the log-shipping port.
# The harness measures cold-WAL catch-up, samples replication lag while
# writes stream, ladders read throughput from one node to the cluster
# (the 1.8x gate self-waives below 4 cores — recorded as
# scaling_gated), then SIGKILLs the primary right after an ack,
# promotes a follower over the replication port, replays the client
# outbox (seq-dedupe absorbs whatever shipped), and verifies all 25 BI
# queries on the promoted node against an every-batch oracle. The
# binary exits nonzero on any stuck catch-up, refused promote, lost
# record, or fingerprint divergence.
REPL_JSON="$(mktemp /tmp/repl_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$REPL_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 --replication \
  --followers 2 --server-bin target/release/snb-server > /dev/null
for key in replication catch_up stale_read_refusals lag_records read_scaling \
           scaling scaling_gated failover writable_from failover_ms \
           resubmitted queries_verified mismatches; do
  grep -q "\"$key\":" "$REPL_JSON" || {
    echo "replication JSON is missing key '$key'" >&2; rm -f "$REPL_JSON"; exit 1; }
done
grep -q '"mismatches": 0' "$REPL_JSON" || {
  echo "promoted node diverges from the every-batch oracle" >&2
  rm -f "$REPL_JSON"; exit 1; }
rm -f "$REPL_JSON"

echo "==> split-brain smoke (net.partition, fencing epochs, auto re-subscribe)"
# E18: the primary is black-holed mid-traffic by a deterministic
# net.partition fault (sockets stay open, bytes vanish), a follower is
# promoted at a bumped fencing epoch with the sibling list, and writes
# keep hitting both nodes. Hard gates: the zombie ex-primary acks ZERO
# post-promotion writes (in-window writes are black-holed; post-heal
# the announce fences it into typed terminal refusals), every
# pre-partition acked write survives on the new primary, the surviving
# follower re-subscribes to the announced primary without operator
# re-pointing, the fenced redirect is followed client-side, and both
# survivors answer all 25 BI queries identically to an every-batch
# oracle. The binary exits nonzero on any gate; the JSON greps pin the
# contract keys so a silently skipped phase cannot pass.
SB_JSON="$(mktemp /tmp/splitbrain_smoke.XXXXXX.json)"
SNB_SERVICE_OUT="$SB_JSON" \
  cargo run -q --release -p snb-bench --bin service_load -- 0.001 --split-brain \
  --server-bin target/release/snb-server > /dev/null
for key in failover partitioned_at_seq writable_from epoch promote_ms first_ack_ms \
           resubscribe_ms fenced_after_ms zombie_write_attempts fenced_rejects_observed \
           redirect_followed queries_verified; do
  grep -q "\"$key\":" "$SB_JSON" || {
    echo "split-brain JSON is missing key '$key'" >&2; rm -f "$SB_JSON"; exit 1; }
done
grep -q '"zombie_acks_after_promotion": 0' "$SB_JSON" || {
  echo "the fenced ex-primary acked writes after promotion (split-brain)" >&2
  rm -f "$SB_JSON"; exit 1; }
grep -q '"lost_acked_writes": 0' "$SB_JSON" || {
  echo "acked writes are missing from the promoted primary" >&2
  rm -f "$SB_JSON"; exit 1; }
grep -q '"mismatches": 0' "$SB_JSON" || {
  echo "survivors diverge from the every-batch oracle after failover" >&2
  rm -f "$SB_JSON"; exit 1; }
rm -f "$SB_JSON"

echo "CI OK"
