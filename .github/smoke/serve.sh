#!/usr/bin/env bash
# Start or stop the background `pom serve` of a smoke leg.
#
# Usage (from the repository root):
#   .github/smoke/serve.sh up PORT
#       Serve svc/q.db on PORT with 2 drainer workers (output in
#       serve.log, pid in serve.pid) and wait until /v1/healthz answers;
#       the health payload is kept in healthz.json.
#   .github/smoke/serve.sh down PORT
#       SIGTERM the server, wait for it to exit and assert a clean
#       shutdown: "shutting down" in serve.log, nothing answering on
#       PORT, no leaked server or drainer process, no leaked shm segment.
set -euo pipefail

usage="usage: serve.sh up|down PORT"
action=${1:?$usage}
port=${2:?$usage}
url="http://127.0.0.1:$port"
here=$(cd "$(dirname "$0")" && pwd)

case "$action" in
  up)
    PYTHONPATH=src python -m repro serve svc/q.db \
      --port "$port" --workers 2 --shard-members 2 \
      --lease-ttl 5 --backoff 0.2 > serve.log 2>&1 &
    echo $! > serve.pid
    for _ in $(seq 1 50); do
      curl -fsS "$url/v1/healthz" >/dev/null 2>&1 && break
      sleep 0.2
    done
    curl -fsS "$url/v1/healthz" | tee healthz.json
    echo
    curl -fsS "$url/v1/registry" >/dev/null
    ;;
  down)
    pid=$(cat serve.pid)
    kill -TERM "$pid"
    for _ in $(seq 1 50); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.2
    done
    cat serve.log
    grep -q "shutting down" serve.log
    if curl -fsS "$url/v1/healthz" >/dev/null 2>&1; then
      echo "server still answering on port $port"; exit 1
    fi
    # Bracketed patterns so pgrep can never match this script's own
    # command line.
    if pgrep -f "[r]epro serve"; then
      echo "leaked server process"; exit 1
    fi
    if pgrep -f "[q]ueue_worker"; then
      echo "leaked drainer worker"; exit 1
    fi
    python "$here/no_shm_leak.py"
    ;;
  *)
    echo "$usage" >&2; exit 2
    ;;
esac
