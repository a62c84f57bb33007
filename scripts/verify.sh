#!/usr/bin/env sh
# Repo verification recipe (the CI gate):
#
#   1. gofmt — the tree must be gofmt-clean
#   2. build everything
#   3. vet
#   4. tier-1 tests (among them TestSingleCallSites: one production
#      call site each for reportstore.BuildSnapshot, Store.Swap,
#      Incremental.Reverify, verify.NewIncremental and nrtm.Poll, all in
#      internal/daemon, and for parser.ParseChunks, in internal/core, so
#      every IR comes out of one loader; TestPolicyTreeWalksLiveInIR:
#      no production file outside internal/ir, internal/asregex and the
#      verifier's compiler selects a policy-tree child field, so
#      every analysis walks the tree through internal/ir's traversals;
#      TestNoUnsafe: no production file imports unsafe; and
#      TestRetainedHeapCeilings: what ingest, a
#      sweep, the store freeze and an -import retain per route)
#   5. the same tests under the race detector — the ingestion pipeline
#      and the verifier's caches are concurrent, so a green run here is
#      part of the contract, not an extra (on a 2-CPU host
#      internal/verify takes 404 s under it, the root package 171 s
#      and internal/oracle 59–73 s, hence the timeout) — then every
#      package's concurrency contracts (singleflight collapse, hot-swap races in
#      the API and whois servers, a snapshot freeze beside API renders,
#      engine steps beside renders of the snapshot before them,
#      concurrent verification, tracing and metrics) 20 times over, so
#      they are pinned by repetition
#   6. any core count — GOMAXPROCS is the only parallelism setting (no
#      command has a -shards or -workers flag), so these runs at
#      GOMAXPROCS 1, 2 and 4 are what move every partition and worker
#      count: the differential oracle's seed corpus (FuzzContracts in
#      internal/oracle: every equivalence contract over one generated
#      universe per draw, and TestContractsSlowSeeds: the seeds too slow
#      for a fuzz input, through the same contracts), the store freeze, whose partitions are
#      GOMAXPROCS route ranges, against its reference (the differential
#      and adversarial inputs, which give more partitions than routes,
#      and reports that share check slices, TestFreezeSharedCheckSlices),
#      the two daemons' start-up and mirror paths as shipped
#      (TestOnePipeline: every way into reportd serves the same bytes;
#      TestMirrorMovesAnswers: whoisd -mirror in-process), and the
#      loader's read-error and overlong-line handling
#      (TestReadErrorIsRecorded, TestOverlongLineCostsItsObject,
#      TestLoadDumpDirFailsOnReadError), since a default-options load
#      runs GOMAXPROCS parse workers for every caller, BuildSynthetic
#      included; the route dump reader, which parses routes.txt in
#      GOMAXPROCS line ranges (TestDumpRoundTripRandom,
#      TestReadDumpErrorLines, TestReadDumpOverlongLine,
#      TestReadDumpPathsAreCapped); the route simulator, which solves
#      GOMAXPROCS origin ranges, against the map-based solver it
#      replaced (TestPathsToMatchesReference) and against the route
#      digests of two corpora (TestCollectRoutesDigest); and the
#      incremental engine's dirtying index, two sorts on two goroutines,
#      against the hashed serial build it replaced
#      (TestIndexRoutesMatchesReference);
#      and the bulk sweep's evaluation order, path-first — a radix sort
#      on Keys packing each route's family, community hash and first
#      three origin-side hops, then a sort within each run of equal
#      Keys — in every partition of the drivers' default GOMAXPROCS
#      partitions and of fixed counts, against the comparator that
#      defines sharing order (TestSweepOrderIsSharingSorted), and the
#      pair memo that order feeds, over one hand-built universe per kind
#      of prefix test, against VerifyRoute
#      (TestPairMemoRecordsEveryPrefixTest), and the runs of equal
#      check lists a partition stores once, shared exactly where
#      neighbours in that order are equal
#      (TestVerifyAllSharesEqualCheckLists); and,
#      under the race detector, the route database's index, whose trie
#      builds beside per-origin tables built over GOMAXPROCS origin
#      ranges, against linear scans of its routes, fresh and after
#      mutations (TestNewShardedEquivalence,
#      TestShardedMutationEquivalence, TestShardRouteCountsCloneIsolation);
#      and the two sorts on prefix Keys that the ingest's route merge and
#      route trie use: the merge's removal of duplicate routes against
#      the first-wins map it replaced (TestMergeRoutesMatchesFirstWinsMap)
#      and the bulk trie build against repeated Insert
#      (TestTrieBuilderMatchesInsert)
#   7. a 32-bit build — the store freeze and its counting kernel
#      (internal/reportstore, internal/report) tested under GOARCH=386,
#      where an int is 32 bits wide and an ASN at or above 2^31 turns
#      negative in it (TestFreezeTopASNs), and where a verify.Check
#      grows from 24 to 28 bytes, its Kinds finding no padding to sit
#      in; and internal/prefix and internal/parser, whose prefix Keys
#      pack addresses into uint64 words that a 32-bit build splits; the
#      amd64 toolchain builds and runs 386 binaries natively
#   8. fuzz — ten seconds each of the ingest path's three fuzz targets:
#      the reader's invariants (FuzzReader), the in-place reader against
#      the scanner-based reference it replaced
#      (FuzzReaderMatchesReference) and chunked parsing at any chunk
#      size against the whole text as one chunk (FuzzSplitDump); of the
#      route dump reader against its scanner-based reference
#      (FuzzReadDumpMatchesReference); of the route simulator against
#      its map-based reference on decoded graphs of up to 40 ASes
#      (FuzzPathsTo); and of the store
#      freeze against its maps-and-sort reference over reports whose
#      reason lists alias, nest and repeat (FuzzFreeze); of the API
#      encoder's string escaping against json.Marshal on arbitrary
#      bytes (FuzzAppendJSONString); of the bulk trie build against
#      repeated Insert over mixed-family prefix lists (FuzzBuildTrie);
#      of the bulk sweep's path-first evaluation order against the
#      sharing-order comparator over decoded routes (FuzzSharingOrder);
#      then the
#      oracle's long budget, a minute of
#      FuzzContracts — a failing draw lands, minimized, under
#      internal/oracle/testdata/fuzz/FuzzContracts/
#   9. benchmarks — one iteration of every benchmark outside bench/, so
#      none drifts from the code it times unnoticed: the two timing
#      ratios no bench/ probe records yet, each computed and asserted by
#      its own benchmark — one incremental step >= 20x faster than
#      verifying every route (BenchmarkReverify), and reportd's
#      instrumentation within its bound of the bare sweep
#      (BenchmarkVerifyAllTraced) — the store freeze on its own, on
#      the differential test's 120 ASes (BenchmarkBuildSnapshot) and at
#      the 2 000 ASes of bench/'s corpus-2k, the one the freeze-profiling
#      recipe runs (BenchmarkBuildSnapshot2k), and the verification
#      before it at that size, NewIncremental plus Init with reportd's
#      instrumentation attached (BenchmarkIncrementalInit2k)
#  10. named smoke — the oracle's seed corpus (FuzzContracts,
#      TestContractsSlowSeeds) and the
#      origin-hash imbalance bound (TestShardImbalanceBounded, <= 2x)
#      and the one-owner guards (TestOneDatabaseOwner,
#      TestOneAggregationKernel), run by name for the record; the step fails unless each name
#      prints its own --- PASS line, so a name that stops matching
#      cannot pass by running nothing
#  11. mirror smoke — generate a universe plus 3 evolution steps of
#      journals and an MRT route dump, replay the journals with
#      cmd/nrtm, and prove the mirrored database renders identically to
#      the final snapshot's dumps
#  12. corpus smoke — cmd/experiments -corpus over that universe: every
#      row heading prints, and every row that needs the generator
#      prints its skip line instead of a body
#  13. trace smoke — reportd -mirror over the generated universe, driven
#      by apiload (which exits non-zero past its -max-error-rate), then
#      scraped: /debug/trace/summary answers, /debug/trace/slowest holds
#      the boot and a journal under the benchmark's layer names
#      (core.load_dumps, reportstore.swap, verify.reverify), /metrics
#      exposes rpslyzer_build_info, and /healthz reports healthy
#  14. bench smoke — bench/ still compiles against the tree and its
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

echo "== any core count (FuzzContracts, TestContractsSlowSeeds, the store freeze, TestOnePipeline, TestMirrorMovesAnswers, the loader's read errors, the route dump reader, the route simulator, the dirtying index, the sweep order, the pair memo, shared check lists, the route database's index, the route merge, the bulk trie build at -cpu 1,2,4)"
go test -cpu 1,2,4 -run '^(FuzzContracts|TestContractsSlowSeeds)$' ./internal/oracle
go test -cpu 1,2,4 -run '^(TestStoreDifferential|TestStoreDifferentialAdversarialLists|FuzzFreeze|TestFreezeTopASNs|TestFreezeSharedCheckSlices)$' ./internal/reportstore
go test -cpu 1,2,4 -run '^TestOnePipeline$' ./internal/daemon
go test -cpu 1,2,4 -run '^TestMirrorMovesAnswers$' ./cmd/whoisd
go test -cpu 1,2,4 -run '^(TestReadErrorIsRecorded|TestOverlongLineCostsItsObject|TestLoadDumpDirFailsOnReadError)$' ./internal/core
go test -cpu 1,2,4 -run '^(TestDumpRoundTripRandom|TestReadDumpErrorLines|TestReadDumpOverlongLine|TestReadDumpPathsAreCapped|TestPathsToMatchesReference|TestCollectRoutesDigest)$' ./internal/bgpsim
go test -cpu 1,2,4 -run '^(TestIndexRoutesMatchesReference|TestSweepOrderIsSharingSorted|TestPairMemoRecordsEveryPrefixTest|TestVerifyAllSharesEqualCheckLists)$' ./internal/verify
go test -race -cpu 1,2,4 -run '^(TestNewShardedEquivalence|TestShardedMutationEquivalence|TestShardRouteCountsCloneIsolation)$' ./internal/irr
go test -cpu 1,2,4 -run '^TestMergeRoutesMatchesFirstWinsMap$' ./internal/parser
go test -cpu 1,2,4 -run '^TestTrieBuilderMatchesInsert$' ./internal/prefix

echo "== 32-bit build (GOARCH=386: internal/report, internal/reportstore, internal/prefix, internal/parser)"
GOARCH=386 go test ./internal/report ./internal/reportstore ./internal/prefix ./internal/parser

echo "== fuzz (FuzzReader, FuzzReaderMatchesReference, FuzzSplitDump, FuzzReadDumpMatchesReference, FuzzPathsTo, FuzzFreeze, FuzzAppendJSONString, FuzzBuildTrie, FuzzSharingOrder: 10s each; FuzzContracts: 60s)"
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 10s ./internal/rpsl
go test -run '^$' -fuzz '^FuzzReaderMatchesReference$' -fuzztime 10s ./internal/rpsl
go test -run '^$' -fuzz '^FuzzSplitDump$' -fuzztime 10s ./internal/parser
go test -run '^$' -fuzz '^FuzzReadDumpMatchesReference$' -fuzztime 10s ./internal/bgpsim
go test -run '^$' -fuzz '^FuzzPathsTo$' -fuzztime 10s ./internal/bgpsim
go test -run '^$' -fuzz '^FuzzFreeze$' -fuzztime 10s ./internal/reportstore
go test -run '^$' -fuzz '^FuzzAppendJSONString$' -fuzztime 10s ./internal/api
go test -run '^$' -fuzz '^FuzzBuildTrie$' -fuzztime 10s ./internal/prefix
go test -run '^$' -fuzz '^FuzzSharingOrder$' -fuzztime 10s ./internal/verify
go test -run '^$' -fuzz '^FuzzContracts$' -fuzztime 60s ./internal/oracle

echo "== benchmarks (BenchmarkReverify, BenchmarkVerifyAllTraced, BenchmarkBuildSnapshot, BenchmarkBuildSnapshot2k, BenchmarkIncrementalInit2k: 1x each)"
go test -run '^$' -bench . -benchtime 1x . ./internal/reportstore

echo "== named smoke (FuzzContracts seed corpus, TestContractsSlowSeeds, imbalance bound, one database owner, one aggregation kernel)"
# go test -run prints "no tests to run" and then ok when a name matches
# nothing, so each name must print its own PASS line.
named_out=$(go test -count=1 -run '^(FuzzContracts|TestContractsSlowSeeds|TestShardImbalanceBounded|TestOneDatabaseOwner|TestOneAggregationKernel)$' -v ./internal/oracle .)
for name in FuzzContracts TestContractsSlowSeeds TestShardImbalanceBounded TestOneDatabaseOwner TestOneAggregationKernel; do
    if ! echo "$named_out" | grep -q "^--- PASS: $name "; then
        echo "$name printed no --- PASS line" >&2
        exit 1
    fi
    echo "--- PASS: $name"
done

echo "== mirror smoke (irrgen -evolve 3 -mrt + cmd/nrtm replay)"
go run ./cmd/irrgen -out "$smoke" -ases 300 -seed 42 -evolve 3 -mrt > "$smoke/irrgen.out"
go run ./cmd/nrtm -dumps "$smoke" -journals "$smoke/journals" -expect "$smoke/final" > "$smoke/nrtm.out"
cat "$smoke/nrtm.out"
grep -q "equivalence: OK" "$smoke/nrtm.out"
grep -q "applied " "$smoke/nrtm.out"

echo "== corpus smoke (experiments -corpus over the mirror smoke's universe)"
go run ./cmd/experiments -corpus "$smoke" > "$smoke/experiments.out"
for heading in 'Table 1' 'Table 2' 'Figure 1' 'Section 4' 'Registered vs announced' \
    'Figure 2' 'Figure 3' 'Figure 4' 'Figure 5' 'Figure 6' 'Appendix E' 'Performance' \
    'Extension: RPSL vs ASPA' 'Extension: ROV' 'Extension: counterfactual' \
    'Extension: community-filter' 'Usage classification' 'Overall check statuses' 'Telemetry'; do
    if ! grep -q "^== $heading" "$smoke/experiments.out"; then
        echo "experiments -corpus printed no '$heading' row" >&2
        exit 1
    fi
done
skips=$(grep -c "^skipped: needs the generator's ground truth$" "$smoke/experiments.out" || true)
if [ "$skips" -ne 6 ]; then
    echo "experiments -corpus printed $skips skip lines, want 6" >&2
    exit 1
fi

echo "== trace smoke (reportd -mirror + apiload + /debug/trace scrape)"
go build -o "$smoke/reportd" ./cmd/reportd
"$smoke/reportd" -dumps "$smoke" -rels "$smoke/as-rel.txt" -routes "$smoke/routes.txt" \
    -mirror "$smoke/journals" -mirror-interval 200ms -stale-after 5m \
    -listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 -addr-file "$smoke/addrs" \
    > "$smoke/reportd.out" 2>&1 &
reportd_pid=$!
trap 'kill "$reportd_pid" 2>/dev/null || true; rm -rf "$smoke"' EXIT
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
