#!/bin/sh
# End-to-end smoke of the nestsql server (docs/SERVER.md): start
# `nestsql serve` on a Unix-domain socket over the count-bug fixture, run
# the paper's Q2 twice through `nestsql client` and assert the plan cache
# reports a hit, `load` replacement data and assert the cache was
# invalidated, then run Q5 twice and assert the hit counter moved again,
# and assert `explain` under the "nested" strategy knob shows the
# nested-iteration plan.
#
# Run as `make serve-smoke` (which builds the binary first) or directly
# from the repo root.  The binary is invoked straight from _build so the
# background server does not contend for the dune build lock.
set -eu

BIN=_build/default/bin/nestsql.exe
[ -x "$BIN" ] || { echo "serve-smoke: $BIN missing; run 'dune build bin/nestsql.exe' first" >&2; exit 1; }

SOCK=$(mktemp -u "${TMPDIR:-/tmp}/nestsql_smoke_XXXXXX").sock
"$BIN" serve -d count-bug --socket "$SOCK" &
SERVER_PID=$!
cleanup() {
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  rm -f "$SOCK"
}
trap cleanup EXIT

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve-smoke: server never came up" >&2; exit 1; }
  sleep 0.1
done

fail() { echo "serve-smoke: FAIL: $1" >&2; exit 1; }
counter() { # counter NAME LINE — first "NAME":<int> occurrence
  printf '%s\n' "$2" | grep -o "\"$1\":[0-9]*" | head -1 | grep -o '[0-9]*$'
}

# Q2 is the paper's COUNT-bug query, Q5 its non-equality correlation (type JA).
Q2="SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')"
Q5="SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM)"

# 1. Q2 twice: second run must be served from the plan cache.
out=$("$BIN" client --socket "$SOCK" --raw -e "$Q2" -e "$Q2" --json '{"op": "stats"}')
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q '"cache":"hit"' || fail "no plan-cache hit for repeated Q2"
hits1=$(counter hits "$(printf '%s\n' "$out" | tail -1)")
[ "${hits1:-0}" -ge 1 ] || fail "stats reports hits=$hits1 after repeated Q2"

# 2. Replace both tables with the neq-bug data: every cached plan must go.
out=$("$BIN" client --socket "$SOCK" --raw \
  --json '{"op": "load", "table": "PARTS", "columns": [["PNUM", "int"], ["QOH", "int"]], "rows": [[3, 0], [10, 4], [8, 4]]}' \
  --json '{"op": "load", "table": "SUPPLY", "columns": [["PNUM", "int"], ["QUAN", "int"], ["SHIPDATE", "date"]], "rows": [[3, 4, "7-3-79"], [3, 2, "10-1-78"], [10, 1, "6-8-78"], [9, 5, "3-2-79"]]}')
printf '%s\n' "$out"
inv=$(counter invalidated "$out")
[ "${inv:-0}" -ge 1 ] || fail "load did not invalidate the plan cache"

# 3. Q5 twice against the fresh catalog: the hit counter must move again.
out=$("$BIN" client --socket "$SOCK" --raw -e "$Q5" -e "$Q5" --json '{"op": "stats"}')
printf '%s\n' "$out"
hits2=$(counter hits "$(printf '%s\n' "$out" | tail -1)")
[ "${hits2:-0}" -gt "$hits1" ] || fail "hit counter did not advance for repeated Q5 ($hits1 -> ${hits2:-0})"

# 4. EXPLAIN honours the strategy knob: under "nested" the text is the
#    nested-iteration plan (an Apply per row), not the transformed program.
out=$("$BIN" client --socket "$SOCK" --raw \
  --json "{\"op\": \"explain\", \"sql\": \"$Q2\", \"strategy\": \"nested\"}")
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q '"ok":true' || fail "explain under strategy nested failed"
printf '%s\n' "$out" | grep -q 'Apply per row' || fail "explain ignored the nested strategy knob"

echo "serve-smoke: OK (hits $hits1 -> $hits2, invalidations >= $inv, nested explain)"
