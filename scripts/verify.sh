#!/usr/bin/env sh
# Repo verification recipe (the CI gate):
#
#   1. gofmt — the tree must be gofmt-clean
#   2. build everything
#   3. vet
#   4. tier-1 tests (TestSingleCallSites among them: one production
#      call site each for Store.Swap, Incremental.Reverify,
#      verify.NewIncremental and nrtm.Poll, all in internal/daemon)
#   5. the same tests under the race detector — the ingestion pipeline
#      and the verifier's caches are concurrent, so a green run here is
#      part of the contract, not an extra — then the concurrency
#      contracts (singleflight collapse, hot-swap races, a snapshot
#      freeze beside API renders, concurrent verification) 20 times
#      over, so they are pinned by repetition
#   6. bench smoke — the ingestion benchmark (3 counts of 1 iteration);
#      gates the parallel pipeline against the sequential loader
#      (adaptive to the host's CPU count) and the default loader's
#      ingest heap cost in bytes per route object
#   7. NRTM bench smoke — journal apply vs full reparse
#   8. verify bench smoke — compiled vs interpreted VerifyAll plus the
#      radix OriginsOf lookup; gates the overhead of reportd's whole
#      instrumentation stack (<= 5%, routes/s printed beside it),
#      incremental re-verification speedup (>= 20x), and the sweep's
#      retained heap in bytes per route; then the report-store freeze
#      over the same sweep (BenchmarkBuildSnapshot): what the snapshot
#      retains per route and how much it allocates to get there
#   9. shard smoke — the end-to-end shard-count invariance test (byte-
#      identical verify/whois/API output at -shards=1/2/4/7) and the
#      origin-hash imbalance bound (<= 2x), run by name for the record
#  10. mirror smoke — generate a universe plus 3 evolution steps of
#      journals, replay them with cmd/nrtm, and prove the mirrored
#      database renders identically to the final snapshot's dumps
#  11. API bench smoke — apiload in self-serve mode drives the report
#      API over both transports (in-process and loopback TCP); the
#      in-process cache-hit run must sustain >= 100k QPS
#  12. trace smoke — reportd -mirror over the generated universe, driven
#      by apiload, then scraped: /debug/trace/summary answers, /metrics
#      exposes rpslyzer_build_info, and /healthz reports healthy
#
# The raw benchmark streams (BENCH_ingest.json, BENCH_nrtm.json,
# BENCH_verify.json, BENCH_api.json) are scratch: they are written under
# the script's temporary directory and go with it. The committed
# trajectory is bench/history.jsonl.
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
go test -race "$pkgs"

echo "== go test -race -count=20 (concurrency contracts)"
go test -race -count=20 -run 'Singleflight|Race|Concurrent' ./internal/api ./internal/verify .

echo "== bench smoke (BenchmarkLoadDumpDir, 1x, count 3)"
go test -run '^$' -bench '^BenchmarkLoadDumpDir$' -benchtime 1x -count 3 -json . > "$smoke/BENCH_ingest.json"
grep -q '"Action":"pass"' "$smoke/BENCH_ingest.json"
# Parallel-ingest gate, adaptive to the host: with real cores the
# 8-worker pipeline must beat the sequential loader outright; on a
# single CPU it does strictly more work (chunking, demux, reordering)
# than the sequential loader can avoid, so the gate instead caps its
# overhead at 25%. min-of-3 on both sides.
seq_ns=$(grep '"Test":"BenchmarkLoadDumpDir/sequential"' "$smoke/BENCH_ingest.json" | grep -o '[0-9][0-9]* ns/op' | awk '{print $1}' | sort -n | head -1)
par_ns=$(grep '"Test":"BenchmarkLoadDumpDir/workers-8"' "$smoke/BENCH_ingest.json" | grep -o '[0-9][0-9]* ns/op' | awk '{print $1}' | sort -n | head -1)
[ -n "$seq_ns" ] && [ -n "$par_ns" ]
ncpu=$(nproc 2>/dev/null || echo 1)
echo "ingest ns/op: sequential=$seq_ns workers-8=$par_ns (ncpu=$ncpu)"
if [ "$ncpu" -gt 1 ]; then
    awk "BEGIN { speedup = $seq_ns / $par_ns; printf \"parallel ingest speedup: %.2fx\n\", speedup; exit !(speedup > 1.0) }"
else
    awk "BEGIN { ratio = $par_ns / $seq_ns; printf \"parallel ingest overhead (1 CPU): %.1f%%\n\", 100 * (ratio - 1); exit !(ratio <= 1.25) }"
fi
# Ingest heap ceiling: the retained IR must stay under 400 live bytes
# per route object and 3750 peak bytes per route (current numbers are
# ~335 / ~3120; the ceilings leave the 20% regression headroom the
# ISSUE mandates).
ingest_live=$(grep '"Test":"BenchmarkLoadDumpDir/heap"' "$smoke/BENCH_ingest.json" | grep -o '[0-9][0-9.]* live-B/route' | awk '{print $1}' | sort -n | head -1)
ingest_peak=$(grep '"Test":"BenchmarkLoadDumpDir/heap"' "$smoke/BENCH_ingest.json" | grep -o '[0-9][0-9.]* peak-B/route' | awk '{print $1}' | sort -n | head -1)
[ -n "$ingest_live" ] && [ -n "$ingest_peak" ]
echo "ingest heap B/route: live=$ingest_live peak=$ingest_peak"
awk "BEGIN { exit !($ingest_live <= 400 && $ingest_peak <= 3750) }"

echo "== NRTM bench smoke (BenchmarkApplyJournal vs BenchmarkFullReparse, 1x)"
go test -run '^$' -bench '^(BenchmarkApplyJournal|BenchmarkFullReparse)$' -benchtime 1x -json . > "$smoke/BENCH_nrtm.json"
grep -q '"Action":"pass"' "$smoke/BENCH_nrtm.json"

echo "== verify bench smoke (BenchmarkVerifyAll compiled+interp+traced, BenchmarkReverify, BenchmarkOriginsOf)"
go test -run '^$' -bench '^(BenchmarkVerifyAll|BenchmarkVerifyAllTraced|BenchmarkReverify|BenchmarkOriginsOf)$' -benchtime 2x -count 3 -json . > "$smoke/BENCH_verify.json"
grep -q '"Action":"pass"' "$smoke/BENCH_verify.json"
# Instrumentation overhead gate: the traced run — everything reportd
# attaches to its verifier: verify.Metrics, the sampling tracer, the
# profiler, the shard metrics — must stay within 5% of the bare
# compiled run. min-of-3 on both sides keeps scheduler/GC noise out of
# the ratio as far as three runs can.
base_ns=$(grep '"Test":"BenchmarkVerifyAll/compiled"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9]* ns/op' | awk '{print $1}' | sort -n | head -1)
traced_ns=$(grep '"Test":"BenchmarkVerifyAllTraced"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9]* ns/op' | awk '{print $1}' | sort -n | head -1)
base_rps=$(grep '"Test":"BenchmarkVerifyAll/compiled"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9]* routes/s' | awk '{print $1}' | sort -n | tail -1)
traced_rps=$(grep '"Test":"BenchmarkVerifyAllTraced"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9]* routes/s' | awk '{print $1}' | sort -n | tail -1)
[ -n "$base_ns" ] && [ -n "$traced_ns" ] && [ -n "$base_rps" ] && [ -n "$traced_rps" ]
echo "VerifyAll ns/op: untraced=$base_ns traced=$traced_ns (routes/s: untraced=$base_rps traced=$traced_rps)"
awk "BEGIN { ratio = $traced_ns / $base_ns; printf \"tracing overhead: %.1f%%\n\", 100 * (ratio - 1); exit !(ratio <= 1.05) }"
# Incremental re-verification gate: one NRTM step at ~1% churn must be
# at least 20x faster than verifying every route of the corpus the way
# the step verifies a dirty one (BenchmarkVerifyAll/per-route: exact-
# size reports, no pair sharing). min-of-3 on both sides, as above.
full_ns=$(grep '"Test":"BenchmarkVerifyAll/per-route"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9]* ns/op' | awk '{print $1}' | sort -n | head -1)
reverify_ns=$(grep '"Test":"BenchmarkReverify"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9]* ns/op' | awk '{print $1}' | sort -n | head -1)
[ -n "$full_ns" ] && [ -n "$reverify_ns" ]
echo "Reverify ns/op: $reverify_ns (every route: $full_ns, VerifyAll: $base_ns)"
awk "BEGIN { speedup = $full_ns / $reverify_ns; printf \"incremental speedup: %.1fx\n\", speedup; exit !(speedup >= 20) }"
# Verifier heap gate: a sweep's retained reports must stay under an
# absolute 770 live-B/route ceiling (the arena-packed reports measure
# ~640; the ceiling leaves 20% regression headroom).
heap_live=$(grep '"Test":"BenchmarkVerifyAll/heap-compiled"' "$smoke/BENCH_verify.json" | grep -o '[0-9][0-9.]* live-B/route' | awk '{print $1}' | sort -n | head -1)
[ -n "$heap_live" ]
echo "VerifyAll heap live-B/route: $heap_live"
awk "BEGIN { exit !($heap_live <= 770) }"

# Store freeze gate, beside the verifier's: the frozen snapshot must
# stay under 555 live-B/route (it measures ~462 on this fixture, 844
# before reason lists were shared; the ceiling leaves 20% headroom), and
# freezing it must allocate at most 1.5x what it retains (~1.33x; 4.8x
# when every arena and index grew by doubling). min-of-3, as above.
freeze_out=$(go test -run '^$' -bench '^BenchmarkBuildSnapshot$' -benchtime 2x -count 3 .)
echo "$freeze_out" | grep '^BenchmarkBuildSnapshot'
freeze_live=$(echo "$freeze_out" | grep -o '[0-9][0-9.]* live-B/route' | awk '{print $1}' | sort -n | head -1)
freeze_alloc=$(echo "$freeze_out" | grep -o '[0-9][0-9.]* alloc-B/route' | awk '{print $1}' | sort -n | head -1)
[ -n "$freeze_live" ] && [ -n "$freeze_alloc" ]
echo "BuildSnapshot B/route: live=$freeze_live alloc=$freeze_alloc"
awk "BEGIN { ratio = $freeze_alloc / $freeze_live; printf \"freeze allocated/retained: %.2fx\n\", ratio; exit !($freeze_live <= 555 && ratio <= 1.5) }"

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

echo "== API bench smoke (apiload -selfserve)"
go run ./cmd/apiload -selfserve -ases 300 -seed 42 -duration 2s -out "$smoke/BENCH_api.json"
grep -q '"qps"' "$smoke/BENCH_api.json"
# The in-process run is the cache-hit ceiling: hold it to 100k QPS.
inproc_qps=$(awk '/"inproc"/{grab=1} grab && /"qps"/{gsub(/[^0-9.]/,"",$2); print int($2); exit}' "$smoke/BENCH_api.json")
echo "inproc QPS: $inproc_qps"
[ "$inproc_qps" -ge 100000 ]

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
curl -fsS "http://$metrics_addr/metrics" | grep -q '^rpslyzer_build_info{'
curl -fsS "http://$api_addr/healthz" | grep -q '"health": *"healthy"'
kill "$reportd_pid"

echo "verify: OK"
