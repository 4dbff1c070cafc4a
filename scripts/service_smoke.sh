#!/usr/bin/env bash
# Service smoke: start axc_server on an ephemeral loopback port, issue one
# query per endpoint through axc_client, then shut down gracefully and
# check that the server drained and wrote its obs run report.
#
# Usage: scripts/service_smoke.sh <build_dir>
set -euo pipefail

build_dir=${1:?usage: service_smoke.sh <build_dir>}
server=$build_dir/examples/axc_server
client=$build_dir/examples/axc_client

workdir=$(mktemp -d)
server_pid=""
server2_pid=""
ring_pids=""
trap 'kill "$server_pid" "$server2_pid" $ring_pids 2>/dev/null || true; rm -rf "$workdir"' EXIT

"$server" --port 0 --port-file "$workdir/port" \
  --allow-remote-shutdown --report "$workdir/report.json" \
  >"$workdir/server.log" 2>&1 &
server_pid=$!

# Wait for the ephemeral port to be published.
for _ in $(seq 1 100); do
  [[ -s "$workdir/port" ]] && break
  kill -0 "$server_pid" 2>/dev/null || {
    echo "server died during startup:"; cat "$workdir/server.log"; exit 1; }
  sleep 0.1
done
[[ -s "$workdir/port" ]] || { echo "server never published its port"; exit 1; }
port=$(cat "$workdir/port")
echo "axc_server up on port $port"

run() { echo "+ axc_client $*"; "$client" --port "$port" "$@"; }

run ping | grep -q pong
run characterize-adder --family gear --width 8 --param-a 2 --param-b 2 \
  | grep -q area_ge=
run characterize-multiplier --structure recursive --width 8 --block ours \
  | grep -q gate_count=
run evaluate-error --target gear --n 8 --r 2 --p 2 | grep -q exhaustive=1
run gear-design-space --width 8 | grep -q max_accuracy_index=
run hetero-adder-design-space --width 12 --block-width 4 \
  | grep -q max_accuracy_index=
run array-mul-design-space --width 6 --max-approx-columns 6 \
  | grep -q max_accuracy_index=
run static-adder-design-space --width 10 --max-approx-lsbs 4 \
  | grep -q max_accuracy_index=
run encode-probe --width 32 --height 32 --frames 2 | grep -q psnr_db=

# Usage errors must exit nonzero without touching the server.
if "$client" --port "$port" characterize-adder --width banana \
    >/dev/null 2>&1; then
  echo "expected a usage error for a malformed width"; exit 1
fi

run shutdown | grep -q "shutdown acknowledged"

# Graceful drain: the server process must exit 0 and write its obs report.
wait "$server_pid"
server_pid=""
grep -q '"service.requests"' "$workdir/report.json"
grep -q '"service.ping.requests"' "$workdir/report.json"
# The default server is the epoll reactor.
grep -q '"service.reactor.connections_accepted"' "$workdir/report.json"
echo "service smoke OK (report has per-endpoint and reactor counters)"

# --- Chaos case 1: server killed mid-request -> typed transport error ----
"$server" --port 0 --port-file "$workdir/port2" --allow-remote-shutdown \
  >"$workdir/server2.log" 2>&1 &
server2_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$workdir/port2" ]] && break
  sleep 0.1
done
[[ -s "$workdir/port2" ]] || { echo "second server never published"; exit 1; }
port2=$(cat "$workdir/port2")
echo "axc_server (victim) up on port $port2"

# A deliberately slow request (multi-second netlist-SAD encode), no
# retries: when the server dies underneath it the client must fail fast
# with a typed transport/* error, not hang or segfault.
"$client" --port "$port2" encode-probe --width 128 --height 128 --frames 6 \
  --search-range 12 \
  >"$workdir/victim.out" 2>"$workdir/victim.err" &
client_pid=$!
sleep 0.5
kill -9 "$server2_pid"
wait "$server2_pid" 2>/dev/null || true
server2_pid=""
if wait "$client_pid"; then
  echo "client should have failed when the server was killed mid-request"
  exit 1
fi
grep -q "transport/" "$workdir/victim.err" || {
  echo "expected a typed transport/* error, got:"; cat "$workdir/victim.err"
  exit 1; }
echo "mid-request kill surfaced as: $(head -1 "$workdir/victim.err")"

# --- Chaos case 2: retrying client out-waits a server restart ------------
# The client dials first (connection refused -> Connect error -> backoff)
# and a fresh server comes up on the same port moments later; with
# --retries the same invocation must succeed against the restarted server.
"$client" --port "$port2" --retries 8 --retry-base-ms 200 ping \
  >"$workdir/retry.out" 2>"$workdir/retry.err" &
client_pid=$!
sleep 0.4
"$server" --port "$port2" --allow-remote-shutdown \
  >"$workdir/server3.log" 2>&1 &
server2_pid=$!
wait "$client_pid" || {
  echo "retrying ping failed against the restarted server:"
  cat "$workdir/retry.err"; exit 1; }
grep -q pong "$workdir/retry.out"
grep -q "retr" "$workdir/retry.err" || {
  echo "expected the client to report its retries"; exit 1; }
"$client" --port "$port2" shutdown >/dev/null
wait "$server2_pid"
server2_pid=""
echo "service smoke OK (typed mid-request failure + retry across restart)"

# --- Reactor: pipelining + many idle connections -------------------------
# The epoll reactor serves every endpoint, accepts multiplexed pipelined
# clients, and holds hundreds of idle connections without spawning a
# thread per peer (bounded thread count, reactor obs counters in the
# shutdown report).
"$server" --port 0 --port-file "$workdir/port4" \
  --workers 2 --allow-remote-shutdown --report "$workdir/report4.json" \
  >"$workdir/server4.log" 2>&1 &
server2_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$workdir/port4" ]] && break
  sleep 0.1
done
[[ -s "$workdir/port4" ]] || { echo "reactor server never published"; exit 1; }
port4=$(cat "$workdir/port4")
echo "axc_server (reactor) up on port $port4"

run4() { echo "+ axc_client $*"; "$client" --port "$port4" "$@"; }

run4 ping | grep -q pong
run4 characterize-adder --family gear --width 8 --param-a 2 --param-b 2 \
  | grep -q area_ge=
run4 pipeline --count 32 | grep -q "pipelined=32 collected=reverse ok"

# Hold 256 idle connections open and check the server's thread count stays
# bounded: one reactor thread means threads ~= workers + 1, and must not
# scale with connections (a thread-per-connection server would sit at
# ~256 here).
"$client" --port "$port4" hold --connections 256 --hold-ms 2000 \
  >"$workdir/hold.out" 2>&1 &
client_pid=$!
for _ in $(seq 1 100); do
  grep -q "holding=256" "$workdir/hold.out" 2>/dev/null && break
  sleep 0.1
done
threads=$(grep -E '^Threads:' "/proc/$server2_pid/status" | awk '{print $2}')
echo "reactor server holds 256 connections with $threads threads"
[[ "$threads" -le 16 ]] || {
  echo "thread count $threads is not bounded (expected <= 16)"; exit 1; }
wait "$client_pid" || { echo "hold client failed"; cat "$workdir/hold.out"; exit 1; }
grep -q "held=256 ok" "$workdir/hold.out"

run4 shutdown | grep -q "shutdown acknowledged"
wait "$server2_pid"
server2_pid=""
grep -q '"service.reactor.connections_accepted"' "$workdir/report4.json"
grep -q '"service.reactor.frames_in"' "$workdir/report4.json"
accepted=$(grep -o '"service.reactor.connections_accepted"[^,}]*' \
  "$workdir/report4.json" | grep -o '[0-9]*$')
[[ "$accepted" -ge 256 ]] || {
  echo "expected >=256 accepted connections in the report, got $accepted"
  exit 1; }
echo "service smoke OK (reactor: pipelined client + 256 idle connections," \
  "bounded threads, reactor counters in report)"

# --- Cluster ring: 4 nodes, replication, node kill -----------------------
# Four ring nodes on ephemeral ports (the ring file is written after they
# all publish — the servers read it lazily on their first replication).
# New cache entries replicate to the XOR-closest peer as CacheInsert
# frames, so after kill -9 on one node the ring-routing client still
# answers every query — failover costs a hop, never a recompute.
for i in 0 1 2 3; do
  "$server" --port 0 --workers 2 --port-file "$workdir/rport$i" \
    --ring-file "$workdir/ring.txt" --ring-index "$i" \
    --report "$workdir/ring_report$i.json" \
    >"$workdir/ring_server$i.log" 2>&1 &
  ring_pids="$ring_pids $!"
done
for i in 0 1 2 3; do
  for _ in $(seq 1 100); do
    [[ -s "$workdir/rport$i" ]] && break
    sleep 0.1
  done
  [[ -s "$workdir/rport$i" ]] || { echo "ring node $i never published"; exit 1; }
done
for i in 0 1 2 3; do
  echo "127.0.0.1:$(cat "$workdir/rport$i")"
done >"$workdir/ring.txt"
echo "4-node ring up: $(paste -sd' ' "$workdir/ring.txt")"

runr() { echo "+ axc_client --ring $*"; "$client" --ring "$workdir/ring.txt" "$@"; }

runr ping | grep -q pong
# Distinct seeds spread the keys over the ring; record the answers so the
# post-kill re-run can be compared byte for byte. Each seed also sends one
# design-space query (distinct accuracy floors, distinct keys), so the
# cache_insert_rejects check below covers their replication too.
ring_queries() {
  runr characterize-adder --family gear --width 8 --param-a 2 --param-b 2 \
    --vectors 64 --seed "$1"
  runr hetero-adder-design-space --width 8 --min-accuracy "$((80 + $1))"
}
for s in 1 2 3 4; do
  ring_queries "$s" >"$workdir/ring_answer$s"
  grep -q area_ge= "$workdir/ring_answer$s"
  grep -q max_accuracy_index= "$workdir/ring_answer$s"
done

# kill -9 (not graceful drain): the node's in-memory cache dies with it.
victim=$(echo $ring_pids | awk '{print $2}')
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
echo "killed ring node 1 (pid $victim)"

for s in 1 2 3 4; do
  ring_queries "$s" >"$workdir/ring_after$s" 2>"$workdir/ring_note$s"
  cmp -s "$workdir/ring_answer$s" "$workdir/ring_after$s" || {
    echo "ring answer for seed $s changed after the node kill:"
    diff "$workdir/ring_answer$s" "$workdir/ring_after$s"; exit 1; }
done
echo "all answers byte-identical after the node kill"

# Drain the three survivors and check the cluster counters made it into
# their obs reports: replication ran (CacheInsert frames accepted
# somewhere) and nothing was rejected.
for i in 0 2 3; do
  port_i=$(cat "$workdir/rport$i")
  pid_i=$(echo $ring_pids | awk -v n=$((i + 1)) '{print $n}')
  kill -TERM "$pid_i"
  wait "$pid_i" 2>/dev/null || true
done
ring_pids=""
grep -q '"service.cluster.replications"' "$workdir"/ring_report*.json || {
  echo "expected service.cluster.replications in a ring report"; exit 1; }
inserts=$(grep -ho '"service.cluster.cache_inserts"[^,}]*' \
  "$workdir"/ring_report*.json | grep -o '[0-9]*$' | awk '{s+=$1} END {print s+0}')
[[ "$inserts" -ge 1 ]] || {
  echo "expected >=1 accepted CacheInsert across the ring, got $inserts"
  exit 1; }
rejects=$(grep -ho '"service.cluster.cache_insert_rejects"[^,}]*' \
  "$workdir"/ring_report*.json | grep -o '[0-9]*$' | awk '{s+=$1} END {print s+0}')
[[ "$rejects" -eq 0 ]] || {
  echo "expected 0 rejected CacheInserts, got $rejects"; exit 1; }
echo "service smoke OK (4-node ring: replication over CacheInsert frames," \
  "byte-identical answers after kill -9 on a node)"
