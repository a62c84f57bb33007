#!/usr/bin/env sh
# Repo verification recipe (the CI gate):
#
#   1. gofmt — the tree must be gofmt-clean
#   2. build everything
#   3. vet
#   4. tier-1 tests (among them TestSingleCallSites: one production
#      call site each for Store.Swap, Incremental.Reverify,
#      verify.NewIncremental and nrtm.Poll, all in internal/daemon; and
#      TestRetainedHeapCeilings: what ingest, a sweep and the store
#      freeze retain per route)
#   5. the same tests under the race detector — the ingestion pipeline
#      and the verifier's caches are concurrent, so a green run here is
#      part of the contract, not an extra (internal/verify and the
#      root package each take 12 minutes under it on a 2-CPU host,
#      hence the timeout) — then every package's
#      concurrency contracts (singleflight collapse, hot-swap races in
#      the API and whois servers, a snapshot freeze beside API renders,
#      concurrent verification, tracing and metrics) 20 times over, so
#      they are pinned by repetition
#   6. fuzz — ten seconds each of the ingest path's three fuzz targets:
#      the reader's invariants (FuzzReader), the in-place reader against
#      the scanner-based reference it replaced
#      (FuzzReaderMatchesReference) and chunked against whole-dump
#      parsing at any chunk size (FuzzSplitDump); and of the store
#      freeze, one-shot and streamed, against its maps-and-sort
#      reference over reports whose reason lists alias, nest and repeat
#      (FuzzFreeze)
#   7. gate benchmarks — the two timing ratios no bench/ probe records
#      yet, each computed and asserted by its own benchmark: one
#      incremental step >= 20x faster than verifying every route
#      (BenchmarkReverify), and reportd's instrumentation within its
#      bound of the bare sweep (BenchmarkVerifyAllTraced)
#   8. shard smoke — the end-to-end shard-count invariance test (byte-
#      identical verify/whois/API output at -shards=1/2/4/7) and the
#      origin-hash imbalance bound (<= 2x), run by name for the record
#   9. mirror smoke — generate a universe plus 3 evolution steps of
#      journals, replay them with cmd/nrtm, and prove the mirrored
#      database renders identically to the final snapshot's dumps
#  10. trace smoke — reportd -mirror over the generated universe, driven
#      by apiload (which exits non-zero past its -max-error-rate), then
#      scraped: /debug/trace/summary answers, /debug/trace/slowest holds
#      the boot and a journal under the benchmark's layer names
#      (core.load_dumps, reportstore.swap, verify.reverify), /metrics
#      exposes rpslyzer_build_info, and /healthz reports healthy
#  11. bench smoke — bench/ still compiles against the tree and its
#      smallest run passes (go vet ./bench && go run ./bench -smoke)
#
# Timings and their trajectory are bench/'s (go run ./bench, committed
# in bench/history.jsonl); this script only passes or fails.
#
# Usage: scripts/verify.sh [package-pattern]   (default ./...)
set -eu

pkgs="${1:-./...}"

smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build $pkgs"
go build "$pkgs"

echo "== go vet $pkgs"
go vet "$pkgs"

echo "== go test $pkgs"
go test "$pkgs"

echo "== go test -race $pkgs"
go test -race -timeout 60m "$pkgs"

echo "== go test -race -count=20 (concurrency contracts)"
go test -race -count=20 -run 'Singleflight|Race|Concurrent|HotSwap' "$pkgs"

echo "== fuzz (FuzzReader, FuzzReaderMatchesReference, FuzzSplitDump, FuzzFreeze: 10s each)"
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 10s ./internal/rpsl
go test -run '^$' -fuzz '^FuzzReaderMatchesReference$' -fuzztime 10s ./internal/rpsl
go test -run '^$' -fuzz '^FuzzSplitDump$' -fuzztime 10s ./internal/parser
go test -run '^$' -fuzz '^FuzzFreeze$' -fuzztime 10s ./internal/reportstore

echo "== gate benchmarks (BenchmarkReverify, BenchmarkVerifyAllTraced)"
go test -run '^$' -bench '^(BenchmarkReverify|BenchmarkVerifyAllTraced)$' -benchtime 1x .

echo "== shard smoke (count invariance + imbalance bound)"
# Re-run the two shard contracts by name so a verify.sh transcript
# shows them explicitly: byte-identical output at -shards=1/2/4/7 and
# origin-hash imbalance <= 2x on the standard corpus.
shard_out=$(go test -run '^(TestShardCountInvarianceEndToEnd|TestShardImbalanceBounded)$' -v .)
echo "$shard_out" | grep -E '^(--- PASS|ok)'

echo "== mirror smoke (irrgen -evolve 3 + cmd/nrtm replay)"
go run ./cmd/irrgen -out "$smoke" -ases 300 -seed 42 -evolve 3 > "$smoke/irrgen.out"
go run ./cmd/nrtm -dumps "$smoke" -journals "$smoke/journals" -expect "$smoke/final" > "$smoke/nrtm.out"
cat "$smoke/nrtm.out"
grep -q "equivalence: OK" "$smoke/nrtm.out"
grep -q "applied " "$smoke/nrtm.out"

echo "== trace smoke (reportd -mirror + apiload + /debug/trace scrape)"
go build -o "$smoke/reportd" ./cmd/reportd
"$smoke/reportd" -dumps "$smoke" -rels "$smoke/as-rel.txt" -routes "$smoke/routes.txt" \
    -mirror "$smoke/journals" -mirror-interval 200ms -stale-after 5m \
    -listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 -addr-file "$smoke/addrs" \
    > "$smoke/reportd.out" 2>&1 &
reportd_pid=$!
trap 'kill "$reportd_pid" 2>/dev/null; rm -rf "$smoke"' EXIT
tries=0
while [ ! -s "$smoke/addrs" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 300 ] || ! kill -0 "$reportd_pid" 2>/dev/null; then
        echo "reportd never wrote $smoke/addrs" >&2
        cat "$smoke/reportd.out" >&2
        exit 1
    fi
    sleep 0.1
done
api_addr=$(sed -n 's/^api=//p' "$smoke/addrs")
metrics_addr=$(sed -n 's/^metrics=//p' "$smoke/addrs")
go run ./cmd/apiload -addr "http://$api_addr" -duration 1s -out "$smoke/apiload.json"
curl -fsS "http://$metrics_addr/debug/trace/summary" > "$smoke/trace-summary.json"
grep -q '"stages"' "$smoke/trace-summary.json"
grep -q '"api"' "$smoke/trace-summary.json"
# The boot trace outlives the recent ring in the slowest set, and so do
# the journal traces once the mirror loop has got to them.
tries=0
until curl -fsS "http://$metrics_addr/debug/trace/slowest" > "$smoke/trace-slowest.json" &&
    grep -q '"verify.reverify"' "$smoke/trace-slowest.json"; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "no journal trace with a verify.reverify span in /debug/trace/slowest" >&2
        exit 1
    fi
    sleep 0.1
done
grep -q '"core.load_dumps"' "$smoke/trace-slowest.json"
grep -q '"reportstore.swap"' "$smoke/trace-slowest.json"
curl -fsS "http://$metrics_addr/metrics" | grep -q '^rpslyzer_build_info{'
curl -fsS "http://$api_addr/healthz" | grep -q '"health": *"healthy"'
kill "$reportd_pid"

echo "== bench smoke (go vet ./bench && go run ./bench -smoke)"
go vet ./bench
go run ./bench -smoke > "$smoke/bench-smoke.out"

echo "verify: OK"
