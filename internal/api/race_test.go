package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// TestHotSwapUnderLoad hammers the API with concurrent queries while
// the store is swapped repeatedly between two generations (mirroring
// the whois hot-swap test). Every response must be internally
// consistent with exactly one generation — same serial in body and
// matching totals — with no errors and no torn reads. Run with -race
// to check the atomic-pointer and cache contracts.
func TestHotSwapUnderLoad(t *testing.T) {
	// Generation A: the shared fixture (4 ASes). Generation B: one
	// extra verified route so the two snapshots are distinguishable.
	reportsA := fixture(t)
	reportsB := append(fixture(t), rep(t, "10.0.3.0/24", []ir.ASN{60, 50},
		chk(50, 60, ir.DirExport, verify.Verified),
	))

	store := reportstore.New(nil)
	store.Swap(reportstore.BuildSnapshot(reportsA))
	srv := NewServer(store, Config{CacheEntries: 64}, NewMetrics(telemetry.NewRegistry("race")))

	const (
		clients          = 4
		queriesPerClient = 200
		swaps            = 50
	)
	var failures atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < queriesPerClient; i++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					failures.Add(1)
					t.Errorf("summary mid-swap = %d", w.Code)
					return
				}
				var sum SummaryJSON
				if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
					failures.Add(1)
					t.Errorf("torn response: %v", err)
					return
				}
				// Route count identifies the generation; it must agree
				// with what that generation serves (A: 2, B: 3 verified
				// routes). Any other value is a torn snapshot.
				if sum.Routes != 2 && sum.Routes != 3 {
					failures.Add(1)
					t.Errorf("impossible route count %d at serial %d", sum.Routes, sum.Serial)
					return
				}
			}
		}()
	}
	close(start)
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			store.Swap(reportstore.BuildSnapshot(reportsB))
		} else {
			store.Swap(reportstore.BuildSnapshot(reportsA))
		}
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during hot swaps", n)
	}
	if got := store.Swaps(); got != swaps+1 {
		t.Errorf("swaps = %d, want %d", got, swaps+1)
	}
}

var (
	concOnce    sync.Once
	concReports []verify.RouteReport
)

// TestConcurrentBuildSnapshotDuringRenders is reportd -mirror's steady
// state under the race detector: BuildSnapshot freezes the engine's
// report slice (its aggregator on a goroutine of its own) while API
// readers render the previous snapshot, which was frozen from the same
// slice and whose route paths still alias it. Every generation holds
// the same reports, so every render must equal the first generation's.
func TestConcurrentBuildSnapshotDuringRenders(t *testing.T) {
	concOnce.Do(func() {
		sys, err := core.BuildSynthetic(core.Options{Seed: 9, ASes: 80, Collectors: 4})
		if err != nil {
			panic(err)
		}
		concReports = sys.Verifier.VerifyAll(sys.CollectRoutes(4, 9), 0)
	})
	reports := concReports

	store := reportstore.New(nil)
	first := reportstore.BuildSnapshot(reports)
	store.Swap(first)
	// No response cache: every request renders from the arenas.
	srv := NewServer(store, Config{CacheEntries: -1}, nil)

	// A page of checks (reasons, names) and a page of routes (paths) for
	// a spread of ASes, with the first generation's answers.
	type page struct {
		path   string
		checks []CheckJSON
		routes []RouteJSON
	}
	var pages []page
	asns := first.ASNs()
	for i := 0; i < len(asns); i += max(1, len(asns)/6) {
		var rp ASReportJSON
		path := fmt.Sprintf("/v1/as/%d/report?limit=40", asns[i])
		if get(t, srv, path, &rp) == http.StatusOK {
			pages = append(pages, page{path: path, checks: rp.Checks})
		}
		var rt ASRoutesJSON
		path = fmt.Sprintf("/v1/as/%d/routes?limit=40", asns[i])
		if get(t, srv, path, &rt) == http.StatusOK {
			pages = append(pages, page{path: path, routes: rt.Routes})
		}
	}
	if len(pages) < 4 {
		t.Fatalf("only %d renderable pages in the fixture", len(pages))
	}

	const readers, builds, rendersEach = 3, 4, 40
	var rendered [readers]atomic.Int64
	var failed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pg := pages[i%len(pages)]
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, pg.path, nil))
				var got struct {
					Checks []CheckJSON `json:"checks"`
					Routes []RouteJSON `json:"routes"`
				}
				if w.Code != http.StatusOK {
					t.Errorf("%s = %d beside a build", pg.path, w.Code)
				} else if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
					t.Errorf("%s: torn response: %v", pg.path, err)
				} else if !reflect.DeepEqual(got.Checks, pg.checks) || !reflect.DeepEqual(got.Routes, pg.routes) {
					t.Errorf("%s rendered differently beside a build", pg.path)
				} else {
					rendered[r].Add(1)
					continue
				}
				failed.Store(true)
				return
			}
		}()
	}
	// Keep freezing and publishing until every reader has rendered
	// beside a build, however the scheduler interleaves them.
	enough := func() bool {
		for r := range rendered {
			if rendered[r].Load() < rendersEach {
				return false
			}
		}
		return true
	}
	for n := 0; !failed.Load() && (n < builds || !enough()); n++ {
		store.Swap(reportstore.BuildSnapshot(reports))
	}
	close(stop)
	wg.Wait()
}
