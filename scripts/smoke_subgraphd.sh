#!/usr/bin/env bash
# End-to-end smoke test for the subgraphd daemon, run by CI and `make smoke`:
#
#   1. build subgraphd and subgraphload;
#   2. start it on an ephemeral port with a 1-worker/1-deep queue;
#   3. run subgraphload's self-check against it: health, upload dedup + digest
#      cross-check, a triangle job byte-identical to the library call,
#      a cache hit on resubmission, and a 429 from queue saturation;
#   4. SIGTERM the daemon and require a clean drain (exit 0).
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/subgraphd" ./cmd/subgraphd
go build -o "$workdir/subgraphload" ./cmd/subgraphload

echo "== start (ephemeral port, -workers 1 -queue 1)"
"$workdir/subgraphd" -listen 127.0.0.1:0 -portfile "$workdir/port" \
  -workers 1 -queue 1 2>"$workdir/serve.log" &
daemon=$!

for _ in $(seq 1 100); do
  [ -s "$workdir/port" ] && break
  sleep 0.1
done
addr=$(head -n1 "$workdir/port" | tr -d '\n')
if [ -z "$addr" ]; then
  echo "daemon never wrote its port file" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
echo "   daemon pid $daemon on $addr"

echo "== selfcheck (with queue-saturation assertion)"
if ! "$workdir/subgraphload" -selfcheck "http://$addr" -saturate; then
  echo "selfcheck failed; daemon log:" >&2
  cat "$workdir/serve.log" >&2
  kill "$daemon" 2>/dev/null || true
  exit 1
fi

echo "== SIGTERM drain"
kill -TERM "$daemon"
status=0
wait "$daemon" || status=$?
cat "$workdir/serve.log"
if [ "$status" -ne 0 ]; then
  echo "daemon exited $status after SIGTERM, want 0 (clean drain)" >&2
  exit 1
fi
grep -q "drained cleanly" "$workdir/serve.log" || {
  echo "daemon log missing drain summary" >&2
  exit 1
}
echo "== smoke passed"
