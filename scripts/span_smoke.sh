#!/bin/sh
# span_smoke.sh — end-to-end gate for request tracing and SLO burn rates
# (`make span-smoke`). Two phases against a real sgdserve process:
#
#   1. baseline: healthy server under load. The SLO must stay quiet and
#      sgdtrace must attribute >= 95% of the p99 tail to named spans.
#   2. storm: the same server under the storm fault plan (10x straggler +
#      1% injected drops). The errors@99.9 objective burns its budget ~10x
#      faster than allowed, so the multi-window alert must fire, and the
#      exported spans must carry the injected faults.
#
# Both assertions run through the shipped binaries (sgdload -expect-alert,
# sgdtrace -min-attrib), so this exercises the same path an operator would.
set -eu

GO=${GO:-go}
OUT=${SPAN_SMOKE_DIR:-$(mktemp -d -t span-smoke.XXXXXX)}
mkdir -p "$OUT"
SLO_SPEC='latency<=1s@99,errors@99.9'

echo "span-smoke: artifacts in $OUT"
"$GO" build -o "$OUT/sgdserve" ./cmd/sgdserve
"$GO" build -o "$OUT/sgdload" ./cmd/sgdload
"$GO" build -o "$OUT/sgdtrace" ./cmd/sgdtrace

# phase NAME EXPECT [extra sgdserve flags...]: boot an instrumented server,
# drive 2s of closed-loop load with trace IDs, assert the /slo state, shut
# the server down cleanly (SIGINT) so the span file is flushed.
phase() {
	name=$1
	expect=$2
	shift 2
	log="$OUT/$name.log"
	"$OUT/sgdserve" -addr 127.0.0.1:0 -maxn 500 -pretrain 2 \
		-spans "$OUT/$name-spans.jsonl" -slow 0 \
		-slo "$SLO_SPEC" -slo-fast 2s -burn 2 \
		-serve-for 60s "$@" >"$OUT/$name.out" 2>"$log" &
	pid=$!
	addr=''
	i=0
	while [ $i -lt 100 ]; do
		addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log" | head -n 1)
		[ -n "$addr" ] && break
		sleep 0.1
		i=$((i + 1))
	done
	if [ -z "$addr" ]; then
		echo "span-smoke: $name server never listened" >&2
		cat "$log" >&2
		kill "$pid" 2>/dev/null || true
		exit 1
	fi
	"$OUT/sgdload" -target "http://$addr" -conc 4 -duration 2s -maxn 500 \
		-out "$OUT/$name-report.json" -expect-alert "$expect"
	kill -s INT "$pid"
	wait "$pid"
}

echo "span-smoke: phase 1/2 baseline (expect quiet SLO, attributable tail)"
phase baseline quiet
"$OUT/sgdtrace" -spans -min-attrib 0.95 -worst 1 "$OUT/baseline-spans.jsonl"

echo "span-smoke: phase 2/2 storm (expect SLO alert to fire)"
phase storm fire -chaos-plan storm
# The storm export must contain error-kept traces carrying injected faults.
"$OUT/sgdtrace" -spans -keep error "$OUT/storm-spans.jsonl" >/dev/null

echo "span-smoke: ok"
