#!/usr/bin/env bash
# Kill / resume / merge smoke shared by the sweep, E10 and serve CI jobs.
#
#   ci/kill_resume_smoke.sh SPEC OUT MODE
#
#   SPEC   scenario spec file (examples/specs/*.json)
#   OUT    scratch directory (removed and recreated)
#   MODE   sweep — run `sweep run` offline, SIGKILL it mid-run, `sweep
#          resume`, `sweep merge`
#          serve — start a `qosrm_serve` daemon, hammer it with
#          `qosrm_load`, SIGKILL the daemon mid-run, restart it on the same
#          port (the load generator rides out the window on transport
#          retries) and let the resumed run complete
#          dist — start a `sweep coordinate` coordinator and three wire
#          workers (two `sweep work` processes and one `qosrm_worker`);
#          SIGKILL one worker mid-shard (a per-shard delay parks it between
#          evaluating a shard and delivering it), wait for its lease to
#          expire and the shard to be reinjected to a surviving worker,
#          then `sweep merge` the distributed run
#
# All modes first produce a reference result from one uninterrupted
# offline `sweep run` + `sweep merge` of the same spec, then assert the
# interrupted path's merged result is byte-identical to it (`cmp`).
#
# Environment overrides:
#   QOSRM_EXPERIMENTS_BIN    default target/release/qosrm_experiments
#   QOSRM_SERVE_BIN          default target/release/qosrm_serve
#   QOSRM_LOAD_BIN           default target/release/qosrm_load
#   QOSRM_WORKER_BIN         default target/release/qosrm_worker
#   QOSRM_SMOKE_SHARD_SIZE   default 4
#   QOSRM_SMOKE_CLIENTS      default 100 (serve mode: concurrent submitters)
#   QOSRM_SMOKE_SHARD_DELAY_MS  default 150 (serve mode: per-shard pause so
#                            the SIGKILL deterministically lands mid-run)
#   QOSRM_SMOKE_LEASE_MS     default 1500 (dist mode: coordinator lease)
#   QOSRM_SMOKE_VICTIM_DELAY_MS  default 2000 (dist mode: the victim
#                            worker's per-shard delay, the window the
#                            SIGKILL lands in)
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 SPEC OUT MODE(sweep|serve|dist)" >&2
  exit 2
fi
SPEC=$1
OUT=$2
MODE=$3

EXPERIMENTS_BIN=${QOSRM_EXPERIMENTS_BIN:-target/release/qosrm_experiments}
SERVE_BIN=${QOSRM_SERVE_BIN:-target/release/qosrm_serve}
LOAD_BIN=${QOSRM_LOAD_BIN:-target/release/qosrm_load}
WORKER_BIN=${QOSRM_WORKER_BIN:-target/release/qosrm_worker}
SHARD_SIZE=${QOSRM_SMOKE_SHARD_SIZE:-4}
CLIENTS=${QOSRM_SMOKE_CLIENTS:-100}
SHARD_DELAY_MS=${QOSRM_SMOKE_SHARD_DELAY_MS:-150}
LEASE_MS=${QOSRM_SMOKE_LEASE_MS:-1500}
VICTIM_DELAY_MS=${QOSRM_SMOKE_VICTIM_DELAY_MS:-2000}

rm -rf "$OUT"
mkdir -p "$OUT"

daemon_pid=""
extra_pids=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  for pid in $extra_pids; do
    kill -9 "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

# Polls until $2 appears in the (possibly not-yet-created) log file $1, or
# fails after 60s.
wait_for_line() {
  local file=$1 pattern=$2
  for _ in $(seq 1 1200); do
    if grep -q -- "$pattern" "$file" 2>/dev/null; then
      return 0
    fi
    sleep 0.05
  done
  echo "timed out waiting for \"$pattern\" in $file" >&2
  return 1
}

# Polls until at least $2 shard logs match the glob $1 (unquoted on
# purpose), or fails after 60s.
wait_for_shards() {
  local glob=$1 want=$2 n=0
  for _ in $(seq 1 600); do
    # shellcheck disable=SC2086
    n=$(ls $glob 2>/dev/null | wc -l) || n=0
    if [ "$n" -ge "$want" ]; then
      return 0
    fi
    sleep 0.1
  done
  echo "timed out waiting for $want shard log(s) at $glob" >&2
  return 1
}

# Reference: one uninterrupted offline run of the spec, merged.
"$EXPERIMENTS_BIN" sweep run --spec "$SPEC" --out "$OUT/ref" \
  --quick --shard-size "$SHARD_SIZE"
"$EXPERIMENTS_BIN" sweep merge --out "$OUT/ref" --result "$OUT/ref.json"

case "$MODE" in
  sweep)
    # Kill a second run of the same spec partway through (SIGKILL, no
    # cleanup), then resume it from its shard logs and manifest.
    "$EXPERIMENTS_BIN" sweep run --spec "$SPEC" --out "$OUT/killed" \
      --quick --shard-size "$SHARD_SIZE" &
    run_pid=$!
    wait_for_shards "$OUT/killed/shard-*.jsonl" 2
    kill -9 "$run_pid" 2>/dev/null || true
    wait "$run_pid" 2>/dev/null || true
    echo "killed after $(ls "$OUT"/killed/shard-*.jsonl 2>/dev/null | wc -l) shard log(s)"
    "$EXPERIMENTS_BIN" sweep resume --out "$OUT/killed"
    "$EXPERIMENTS_BIN" sweep merge --out "$OUT/killed" --result "$OUT/killed.json"
    ;;
  serve)
    # Fixed port so the restarted daemon is reachable at the address the
    # load generator keeps retrying (the daemon binds with retries, riding
    # out the dying listener's TIME_WAIT). It lies below 32768, the start
    # of Linux's default ephemeral range (32768-60999): a port in that
    # range can already be the local end of an outgoing connection, such
    # as one of the load generator's own, and the bind then fails with
    # "Address already in use".
    ADDR="127.0.0.1:$(( (RANDOM % 12000) + 20000 ))"
    DATA="$OUT/serve-data"
    daemon_starts=0
    start_daemon() {
      "$SERVE_BIN" --addr "$ADDR" --data-dir "$DATA" \
        --shard-size "$SHARD_SIZE" --shard-delay-ms "$SHARD_DELAY_MS" \
        >>"$OUT/daemon.log" 2>&1 &
      daemon_pid=$!
      daemon_starts=$((daemon_starts + 1))
      # The log is append-only across restarts, so wait for the Nth
      # "listening on" line, not just any.
      for _ in $(seq 1 600); do
        if [ "$(grep -c "listening on" "$OUT/daemon.log" 2>/dev/null || true)" -ge "$daemon_starts" ]; then
          return 0
        fi
        sleep 0.1
      done
      echo "daemon did not come up on $ADDR" >&2
      return 1
    }
    start_daemon
    # Hammer the daemon: every submission is the same spec, so the whole
    # load deduplicates to one run whose merged bytes must match the
    # offline reference.
    "$LOAD_BIN" --addr "$ADDR" --spec "$SPEC" \
      --clients "$CLIENTS" --per-client 1 --shard-size "$SHARD_SIZE" \
      --timeout 300 --result "$OUT/killed.json" \
      --summary "$OUT/load_summary.json" >"$OUT/load.log" 2>&1 &
    load_pid=$!
    # SIGKILL the daemon mid-run, restart it on the same port, and let the
    # recovered run resume from its shard logs.
    wait_for_shards "$DATA/runs/*/shard-*.jsonl" 2
    kill -9 "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    echo "daemon SIGKILLed after $(ls "$DATA"/runs/*/shard-*.jsonl 2>/dev/null | wc -l) shard log(s); restarting"
    start_daemon
    wait "$load_pid"
    curl -fsS "http://$ADDR/stats" >"$OUT/stats.json"
    kill -9 "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    daemon_pid=""
    ;;
  dist)
    # Coordinator + three wire workers. worker-1 is the victim: its long
    # per-shard delay parks it between evaluating a shard and delivering
    # the completion, with no heartbeat running, so the SIGKILL
    # deterministically lands mid-shard. The survivors drain the rest (the
    # two worker binaries run the same drain loop: worker-2 is `sweep
    # work`, worker-3 is `qosrm_worker`), the victim's lease expires after
    # $LEASE_MS, the coordinator reinjects the orphaned shard, and a
    # survivor re-runs it — the merged result must still be byte-identical
    # to the single-process reference.
    # The coordinator never restarts, so it binds any free port and the
    # workers read the address from its liveness line.
    "$EXPERIMENTS_BIN" sweep coordinate --spec "$SPEC" --out "$OUT/dist" \
      --quick --shard-size "$SHARD_SIZE" --addr 127.0.0.1:0 \
      --lease-ms "$LEASE_MS" >"$OUT/coordinator.log" 2>&1 &
    coord_pid=$!
    extra_pids="$coord_pid"
    wait_for_line "$OUT/coordinator.log" "coordinating on"
    ADDR=$(sed -n 's/^coordinating on //p' "$OUT/coordinator.log" | head -n 1)

    "$EXPERIMENTS_BIN" sweep work --addr "$ADDR" --worker worker-1 \
      --shard-delay-ms "$VICTIM_DELAY_MS" >"$OUT/worker-1.log" 2>&1 &
    victim_pid=$!
    extra_pids="$extra_pids $victim_pid"
    # Kill the victim as soon as the coordinator grants it a shard — it is
    # still $VICTIM_DELAY_MS away from completing that shard.
    wait_for_line "$OUT/coordinator.log" "-> worker-1"
    kill -9 "$victim_pid" 2>/dev/null || true
    wait "$victim_pid" 2>/dev/null || true
    echo "worker-1 SIGKILLed mid-shard"

    "$EXPERIMENTS_BIN" sweep work --addr "$ADDR" --worker worker-2 \
      >"$OUT/worker-2.log" 2>&1 &
    w2_pid=$!
    "$WORKER_BIN" --addr "$ADDR" --worker worker-3 \
      >"$OUT/worker-3.log" 2>&1 &
    w3_pid=$!
    extra_pids="$extra_pids $w2_pid $w3_pid"

    wait "$coord_pid"
    wait "$w2_pid"
    wait "$w3_pid"
    extra_pids=""
    # The orphaned shard must have come back through lease expiry, not by
    # any other path.
    grep -q "expired lease(s) reinjected" "$OUT/coordinator.log"
    grep "^leases:" "$OUT/coordinator.log" || true
    "$EXPERIMENTS_BIN" sweep merge --out "$OUT/dist" --result "$OUT/killed.json"
    ;;
  *)
    echo "unknown mode $MODE (want sweep, serve or dist)" >&2
    exit 2
    ;;
esac

cmp "$OUT/ref.json" "$OUT/killed.json"
echo "$MODE kill/resume/merge cycle is byte-identical"
