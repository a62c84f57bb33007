package verify

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
)

// raceRPSL exercises every lazily-populated cache: AS-path regex
// filters (the regex cache), as-set filters (irr's asSetTables), the
// customer-cone check (the cone cache), and the compiled programs.
const raceRPSL = `
aut-num: AS100
import: from AS200 accept <^AS200+$>
export: to AS200 announce ANY

aut-num: AS200
import: from AS100 accept ANY
export: to AS100 announce AS-CONE

as-set: AS-CONE
members: AS200, AS300

aut-num: AS300
export: to AS200 announce AS300

route: 192.0.2.0/24
origin: AS200

route: 198.51.100.0/24
origin: AS300
`

// TestConcurrentVerifyCaches hammers one Verifier from many goroutines
// over overlapping routes, so `go test -race` puts the verifier's caches and the merged database's lazy
// tables under genuine contention. It also pins determinism: every
// goroutine must see identical reports.
func TestConcurrentVerifyCaches(t *testing.T) {
	v := fixture(t, raceRPSL, func(rels *asrel.Database) {
		rels.AddP2C(100, 200)
		rels.AddP2C(200, 300)
	}, Config{})

	routes := []bgpsim.Route{
		route("192.0.2.0/24", 100, 200),
		route("198.51.100.0/24", 100, 200, 300),
		route("192.0.2.0/24", 100, 200),
	}
	want := make([]string, len(routes))
	for i, r := range routes {
		want[i] = reportString(v.VerifyRoute(r))
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for i, r := range routes {
					if got := reportString(v.VerifyRoute(r)); got != want[i] {
						errs <- fmt.Errorf("route %d diverged:\n%s\nvs\n%s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentVerifyAllDeterministic checks the worker-pool batch
// path yields the same reports regardless of worker count.
func TestConcurrentVerifyAllDeterministic(t *testing.T) {
	v := fixture(t, raceRPSL, func(rels *asrel.Database) {
		rels.AddP2C(100, 200)
		rels.AddP2C(200, 300)
	}, Config{})
	var routes []bgpsim.Route
	for i := 0; i < 60; i++ {
		routes = append(routes,
			route("192.0.2.0/24", 100, 200),
			route("198.51.100.0/24", 100, 200, 300))
	}
	base := v.VerifyAll(routes, 1)
	for _, workers := range []int{2, 8} {
		got := v.VerifyAll(routes, workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if reportString(got[i]) != reportString(base[i]) {
				t.Fatalf("workers=%d: report %d diverged", workers, i)
			}
		}
	}
}

func reportString(r RouteReport) string {
	var b strings.Builder
	for _, c := range r.Checks {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}
