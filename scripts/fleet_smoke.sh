#!/usr/bin/env sh
# fleet_smoke.sh — end-to-end smoke of the distributed serving tier on
# loopback: boot two ascd backends and one ascgw in front, run one traced
# batch and assert its stitched trace carries spans from both tiers, drive
# mixed /v1/run and /v1/batch traffic through the gateway, kill one
# backend mid-stream, and assert that (a) every response is a success or an
# honest shed (429/503 with Retry-After) — never a transport error or a
# hang — and (b) results stay correct throughout. A final phase boots a
# fresh two-backend fleet, drains one backend under live resumable
# sessions, and asserts every session completes through its ring successor
# with a state digest identical to an uninterrupted run (live migration,
# docs/SERVER.md §drain). Run via `make fleet-smoke`. Requires: go, curl.
# Exits non-zero on any violation.
set -eu

GW_PORT=18641
B1_PORT=18651
B2_PORT=18652
WORKDIR="$(mktemp -d)"
PIDS=""

cleanup() {
	for p in $PIDS; do kill "$p" 2>/dev/null || true; done
	rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

say() { echo "fleet-smoke: $*"; }
fail() { echo "fleet-smoke: FAIL: $*" >&2; exit 1; }

say "building ascd and ascgw"
go build -o "$WORKDIR/ascd" ./cmd/ascd
go build -o "$WORKDIR/ascgw" ./cmd/ascgw

"$WORKDIR/ascd" -addr 127.0.0.1:$B1_PORT -trace-sample 1 -log-level warn &
B1_PID=$!; PIDS="$PIDS $B1_PID"
"$WORKDIR/ascd" -addr 127.0.0.1:$B2_PORT -trace-sample 1 -log-level warn &
B2_PID=$!; PIDS="$PIDS $B2_PID"
# Short health interval so the killed backend ejects within the test.
# Full trace sampling on every tier so the traced-batch phase can fetch
# its stitched trace deterministically.
"$WORKDIR/ascgw" -addr 127.0.0.1:$GW_PORT \
	-backends http://127.0.0.1:$B1_PORT,http://127.0.0.1:$B2_PORT \
	-health-interval 200ms -health-failures 2 -trace-sample 1 -log-level warn &
GW_PID=$!; PIDS="$PIDS $GW_PID"

wait_healthy() {
	i=0
	until curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && fail "port $1 not healthy after 10s"
		sleep 0.1
	done
}
wait_healthy $B1_PORT
wait_healthy $B2_PORT
wait_healthy $GW_PORT
say "gateway and both backends healthy"

RUN_BODY='{"ascl": "parallel v = pread(0); write(0, sumval(v));", "config": {"pes": 4, "width": 32}, "localMem": [[1],[2],[3],[4]], "dumpScalar": 1}'
# Same program twice and a second geometry: two digest groups, gangable.
BATCH_BODY='{"jobs": [
  {"ascl": "parallel v = pread(0); write(0, sumval(v));", "config": {"pes": 4, "width": 32}, "localMem": [[1],[2],[3],[4]], "dumpScalar": 1},
  {"ascl": "parallel v = pread(0); write(0, sumval(v));", "config": {"pes": 4, "width": 32}, "localMem": [[2],[2],[3],[3]], "dumpScalar": 1},
  {"ascl": "parallel v = pread(0); write(0, sumval(v));", "config": {"pes": 8, "width": 32}, "localMem": [[1],[1],[1],[1],[1],[1],[1],[2]], "dumpScalar": 1}
]}'

# one_run/one_batch: POST through the gateway, tolerate honest sheds
# (429/503), fail hard on transport errors, other statuses, or wrong
# results. A 20s curl cap turns a hung request into a failure.
one_run() {
	code=$(curl -s -o "$WORKDIR/resp" -w '%{http_code}' --max-time 20 \
		"http://127.0.0.1:$GW_PORT/v1/run" -d "$RUN_BODY") || fail "run: transport error through gateway"
	case "$code" in
	200) grep -q '"scalarMem":\[10\]' "$WORKDIR/resp" || fail "run: wrong result: $(cat "$WORKDIR/resp")" ;;
	429 | 503) SHEDS=$((SHEDS + 1)) ;;
	*) fail "run: unexpected status $code: $(cat "$WORKDIR/resp")" ;;
	esac
}
one_batch() {
	code=$(curl -s -o "$WORKDIR/resp" -w '%{http_code}' --max-time 20 \
		"http://127.0.0.1:$GW_PORT/v1/batch" -d "$BATCH_BODY") || fail "batch: transport error through gateway"
	case "$code" in
	200)
		# Per-job sheds inside a 200 are honest too; completed jobs must
		# be correct (sums 10, 10, 9).
		if grep -q '"failed":0' "$WORKDIR/resp"; then
			grep -q '"scalarMem":\[9\]' "$WORKDIR/resp" || fail "batch: wrong results: $(cat "$WORKDIR/resp")"
		else
			grep -q '"status":50[03]\|"status":429' "$WORKDIR/resp" || fail "batch: non-shed job failure: $(cat "$WORKDIR/resp")"
			SHEDS=$((SHEDS + 1))
		fi
		;;
	429 | 503) SHEDS=$((SHEDS + 1)) ;;
	*) fail "batch: unexpected status $code: $(cat "$WORKDIR/resp")" ;;
	esac
}

say "phase 0: one traced batch, stitched across both tiers"
TRACE_ID=4bf92f3577b34da6a3ce929d0e0e4736
code=$(curl -s -o "$WORKDIR/tresp" -w '%{http_code}' --max-time 20 \
	-H "traceparent: 00-$TRACE_ID-00f067aa0ba902b7-01" \
	"http://127.0.0.1:$GW_PORT/v1/batch" -d "$BATCH_BODY") || fail "traced batch: transport error"
[ "$code" = 200 ] || fail "traced batch: status $code: $(cat "$WORKDIR/tresp")"
curl -s --max-time 20 "http://127.0.0.1:$GW_PORT/debug/traces?trace=$TRACE_ID" >"$WORKDIR/trace"
grep -q "\"traceId\":\"$TRACE_ID\"" "$WORKDIR/trace" || fail "stitched trace $TRACE_ID not retrievable from the gateway"
grep -q '"service":"ascgw"' "$WORKDIR/trace" || fail "stitched trace has no gateway spans"
grep -q '"service":"ascd"' "$WORKDIR/trace" || fail "stitched trace has no backend spans"
grep -q '"name":"route"' "$WORKDIR/trace" || fail "stitched trace missing route span"
grep -q '"name":"exec"' "$WORKDIR/trace" || fail "stitched trace missing exec span"
curl -s --max-time 20 "http://127.0.0.1:$GW_PORT/debug/traces?trace=$TRACE_ID&format=waterfall" | sed 's/^/fleet-smoke:   /'
say "stitched trace OK (spans from both tiers under one id)"

SHEDS=0
say "phase 1: mixed traffic through the healthy fleet"
i=0
while [ "$i" -lt 10 ]; do
	one_run
	one_batch
	i=$((i + 1))
done
[ "$SHEDS" -eq 0 ] || fail "healthy fleet shed $SHEDS requests"

say "phase 2: killing backend 1 mid-stream"
kill -9 "$B1_PID" 2>/dev/null || true
i=0
while [ "$i" -lt 15 ]; do
	one_run
	one_batch
	i=$((i + 1))
done
say "phase 2 done ($SHEDS sheds, all other responses correct)"

# The killed backend must be ejected from the fleet scrape's up gauge.
i=0
until curl -s "http://127.0.0.1:$GW_PORT/metrics" | grep -q "asc_gw_backend_up{backend=\"127.0.0.1:$B1_PORT\"} 0"; do
	i=$((i + 1))
	[ "$i" -gt 50 ] && fail "backend 1 never ejected from asc_gw_backend_up"
	sleep 0.1
done
say "backend 1 ejected"

say "phase 3: traffic settles on the survivor"
SETTLED=0
i=0
while [ "$i" -lt 10 ]; do
	before=$SHEDS
	one_run
	[ "$SHEDS" -eq "$before" ] && SETTLED=$((SETTLED + 1))
	i=$((i + 1))
done
[ "$SETTLED" -ge 8 ] || fail "only $SETTLED/10 runs succeeded after ejection settled"

# Fleet scrape must still be well-formed and carry both tiers' series.
curl -s "http://127.0.0.1:$GW_PORT/metrics" >"$WORKDIR/scrape"
grep -q '^asc_gw_requests_total' "$WORKDIR/scrape" || fail "scrape missing gateway series"
grep -q 'asc_requests_total{backend=' "$WORKDIR/scrape" || fail "scrape missing backend-labeled series"
curl -s "http://127.0.0.1:$GW_PORT/metrics?view=fleet" | grep -q '^asc_requests_total ' || fail "fleet view missing summed series"

say "phase 4: live migration — drain a backend under resumable sessions"
# Fresh mini-fleet: the main fleet already lost a backend to phase 2, and
# a drained backend stays out of rotation, so migration gets its own pair.
MGW_PORT=18645
M1_PORT=18655
M2_PORT=18656
"$WORKDIR/ascd" -addr 127.0.0.1:$M1_PORT -log-level warn &
PIDS="$PIDS $!"
"$WORKDIR/ascd" -addr 127.0.0.1:$M2_PORT -log-level warn &
PIDS="$PIDS $!"
"$WORKDIR/ascgw" -addr 127.0.0.1:$MGW_PORT \
	-backends http://127.0.0.1:$M1_PORT,http://127.0.0.1:$M2_PORT \
	-health-interval 200ms -health-failures 2 -log-level warn &
PIDS="$PIDS $!"
wait_healthy $M1_PORT
wait_healthy $M2_PORT
wait_healthy $MGW_PORT

# A resumable session long enough (~15 cycles/iteration) that the drain
# reliably lands mid-run. Distinct iteration counts give the two live
# sessions distinct program digests, so they route independently.
session_body() {
	printf '{"ascl": "scalar n = %d; scalar acc = 0; parallel v = idx(); while (n > 0) { acc = acc + sumval(v); n = n - 1; } write(0, acc);", "config": {"pes": 8, "width": 32}, "dumpScalar": 1, "resumable": true, "stateDigest": true}' "$1"
}
state_digest() { sed -n 's/.*"stateDigest":"\([0-9a-f]\{64\}\)".*/\1/p' "$1"; }

ITERS_A=600000
ITERS_B=600001
# Uninterrupted references first: the migrated runs must reproduce these
# final state digests bit for bit.
for it in $ITERS_A $ITERS_B; do
	code=$(curl -s -o "$WORKDIR/ref$it" -w '%{http_code}' --max-time 60 \
		"http://127.0.0.1:$MGW_PORT/v1/sessions" -d "$(session_body $it)") || fail "migration: reference session transport error"
	[ "$code" = 200 ] || fail "migration: reference session status $code: $(cat "$WORKDIR/ref$it")"
	grep -q "\"scalarMem\":\[$((it * 28))\]" "$WORKDIR/ref$it" || fail "migration: reference result wrong: $(cat "$WORKDIR/ref$it")"
	[ -n "$(state_digest "$WORKDIR/ref$it")" ] || fail "migration: reference session has no stateDigest"
done

# Live phase: both sessions in flight, then drain whichever backend is
# actually executing one.
curl -s -o "$WORKDIR/liveA" -w '%{http_code}' --max-time 60 \
	"http://127.0.0.1:$MGW_PORT/v1/sessions" -d "$(session_body $ITERS_A)" >"$WORKDIR/liveA.code" &
LIVE_A=$!
curl -s -o "$WORKDIR/liveB" -w '%{http_code}' --max-time 60 \
	"http://127.0.0.1:$MGW_PORT/v1/sessions" -d "$(session_body $ITERS_B)" >"$WORKDIR/liveB.code" &
LIVE_B=$!

VICTIM=""
i=0
while [ -z "$VICTIM" ]; do
	for port in $M1_PORT $M2_PORT; do
		if curl -s --max-time 5 "http://127.0.0.1:$port/v1/sessions" | grep -q '"state":"running"'; then
			VICTIM="http://127.0.0.1:$port"
			break
		fi
	done
	i=$((i + 1))
	[ "$i" -gt 200 ] && fail "migration: no backend ever reported a running session"
	sleep 0.05
done
say "draining $VICTIM mid-session"
code=$(curl -s -o "$WORKDIR/drain" -w '%{http_code}' --max-time 30 \
	"http://127.0.0.1:$MGW_PORT/v1/admin/drain" -d "{\"backend\": \"$VICTIM\"}") || fail "migration: drain transport error"
[ "$code" = 200 ] || fail "migration: drain status $code: $(cat "$WORKDIR/drain")"
grep -q '"drained":true' "$WORKDIR/drain" || fail "migration: backend not drained: $(cat "$WORKDIR/drain")"
grep -q '"failed":0' "$WORKDIR/drain" || fail "migration: drain walk failed sessions: $(cat "$WORKDIR/drain")"

wait "$LIVE_A" || fail "migration: session A transport error"
wait "$LIVE_B" || fail "migration: session B transport error"
for v in A B; do
	it=$ITERS_A
	[ "$v" = B ] && it=$ITERS_B
	code=$(cat "$WORKDIR/live$v.code")
	[ "$code" = 200 ] || fail "migration: session $v status $code across the drain: $(cat "$WORKDIR/live$v")"
	grep -q '"state":"completed"' "$WORKDIR/live$v" || fail "migration: session $v did not complete: $(cat "$WORKDIR/live$v")"
	grep -q "\"scalarMem\":\[$((it * 28))\]" "$WORKDIR/live$v" || fail "migration: session $v wrong result: $(cat "$WORKDIR/live$v")"
	[ "$(state_digest "$WORKDIR/live$v")" = "$(state_digest "$WORKDIR/ref$it")" ] || \
		fail "migration: session $v state digest differs from uninterrupted run"
done
say "both sessions completed across the drain, state digests bit-identical"

# The gateway accounted for at least one live migration.
curl -s "http://127.0.0.1:$MGW_PORT/metrics" >"$WORKDIR/mscrape"
grep '^asc_migrations_total{' "$WORKDIR/mscrape" | grep -qv ' 0$' || \
	fail "migration: asc_migrations_total never moved: $(grep asc_migrations_total "$WORKDIR/mscrape" || true)"
grep -q 'asc_migration_duration_seconds_count' "$WORKDIR/mscrape" || fail "migration: duration histogram not exported"

# The drained backend is out of rotation; new sessions land on the
# survivor and still complete.
code=$(curl -s -o "$WORKDIR/post" -w '%{http_code}' --max-time 60 \
	"http://127.0.0.1:$MGW_PORT/v1/sessions" -d "$(session_body 1000)") || fail "migration: post-drain session transport error"
[ "$code" = 200 ] || fail "migration: post-drain session status $code"
grep -q "\"scalarMem\":\[$((1000 * 28))\]" "$WORKDIR/post" || fail "migration: post-drain session wrong result"
say "post-drain sessions complete on the survivor"

say "OK (0 transport errors, $SHEDS honest sheds across the kill window, migration digests bit-identical)"
