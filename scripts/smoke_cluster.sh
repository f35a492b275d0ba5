#!/usr/bin/env bash
# End-to-end smoke test for the subgraphd cluster, run by CI and
# `make cluster-smoke`:
#
#   1. build subgraphd and subgraphload;
#   2. start two worker daemons on ephemeral ports, then a router
#      fronting them (digest routing, shared result cache, replication 2);
#   3. run the self-check THROUGH the router: health, upload dedup +
#      digest cross-check, and a triangle job byte-identical to the
#      library call — proving the proxied surface is indistinguishable
#      from a single daemon;
#   4. fire a loadgen burst at the router and SIGKILL one worker
#      mid-run: every admitted job must still complete (the router
#      re-dispatches the dead worker's jobs to the surviving replica;
#      loadgen exits non-zero if any job errors);
#   5. SIGTERM the router and the surviving worker and require clean
#      drains (exit 0) from both.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

wait_port() { # portfile -> prints bound address
  for _ in $(seq 1 100); do
    [ -s "$1" ] && break
    sleep 0.1
  done
  head -n1 "$1" | tr -d '\n'
}

echo "== build"
go build -o "$workdir/subgraphd" ./cmd/subgraphd
go build -o "$workdir/subgraphload" ./cmd/subgraphload

echo "== start 2 workers (ephemeral ports)"
for i in 0 1; do
  "$workdir/subgraphd" -listen 127.0.0.1:0 -portfile "$workdir/w$i.port" \
    -node-name "w$i" -workers 2 2>"$workdir/w$i.log" &
  pids+=($!)
  eval "worker$i=$!"
done
w0=$(wait_port "$workdir/w0.port")
w1=$(wait_port "$workdir/w1.port")
if [ -z "$w0" ] || [ -z "$w1" ]; then
  echo "a worker never wrote its port file" >&2
  cat "$workdir"/w*.log >&2
  exit 1
fi
echo "   workers on $w0, $w1"

echo "== start router over both workers (replication 2)"
"$workdir/subgraphd" -router -members "http://$w0,http://$w1" \
  -replication 2 -listen 127.0.0.1:0 -portfile "$workdir/router.port" \
  -node-name router 2>"$workdir/router.log" &
pids+=($!)
router=$!
addr=$(wait_port "$workdir/router.port")
if [ -z "$addr" ]; then
  echo "router never wrote its port file" >&2
  cat "$workdir/router.log" >&2
  exit 1
fi
echo "   router pid $router on $addr"

echo "== healthz reports the router role"
health=$(curl -fsS "http://$addr/healthz")
echo "   $health"
echo "$health" | grep -q '"role":"router"' || {
  echo "router /healthz missing role=router" >&2
  exit 1
}

echo "== selfcheck through the router (byte-identical Stats)"
if ! "$workdir/subgraphload" -selfcheck "http://$addr"; then
  echo "selfcheck via router failed; router log:" >&2
  cat "$workdir/router.log" >&2
  exit 1
fi

echo "== loadgen burst with a worker crash mid-run"
"$workdir/subgraphload" -target "http://$addr" \
  -jobs 200 -seed 1 -out "$workdir/cluster_loadgen.json" \
  2>"$workdir/loadgen.log" &
lgpid=$!
sleep 0.7
echo "   SIGKILL worker w1 (pid $worker1)"
kill -KILL "$worker1" 2>/dev/null || true
status=0
wait "$lgpid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "loadgen failed ($status) after the worker crash; logs:" >&2
  tail -n 40 "$workdir/loadgen.log" >&2
  tail -n 40 "$workdir/router.log" >&2
  exit 1
fi
grep -q '"workload"' "$workdir/cluster_loadgen.json" || {
  echo "loadgen wrote no report" >&2
  exit 1
}

echo "== SIGTERM drain (router, then surviving worker)"
kill -TERM "$router"
status=0
wait "$router" || status=$?
if [ "$status" -ne 0 ]; then
  echo "router exited $status after SIGTERM, want 0 (clean drain)" >&2
  cat "$workdir/router.log" >&2
  exit 1
fi
grep -q "drained cleanly" "$workdir/router.log" || {
  echo "router log missing drain summary" >&2
  cat "$workdir/router.log" >&2
  exit 1
}
kill -TERM "$worker0"
status=0
wait "$worker0" || status=$?
if [ "$status" -ne 0 ]; then
  echo "surviving worker exited $status after SIGTERM, want 0" >&2
  cat "$workdir/w0.log" >&2
  exit 1
fi
echo "== cluster smoke passed"
