package whois

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
)

// swapIRR is the alternate snapshot for hot-swap tests: same aut-num,
// one route withdrawn and one added relative to whoisIRR.
const swapIRR = `
aut-num: AS15169
as-name: GOOGLE
import: from AS174 accept ANY
export: to AS174 announce AS15169
source: RADB

route: 8.8.8.0/24
origin: AS15169
source: RADB

route: 8.8.6.0/24
origin: AS15169
source: RADB

as-set: AS-GOOGLE
members: AS15169, AS-GOOGLE-IT
source: RADB
`

func dbFromText(t *testing.T, text string) *irr.Database {
	t.Helper()
	return irr.New(parser.ParseText(text, "RADB"))
}

// TestHotSwapUnderLoad hammers a live server with concurrent TCP
// queries while the served database is swapped repeatedly. Every query
// must succeed and return one of the two snapshots' answers — no
// errors, no torn reads. Run with -race to check the atomic-pointer
// contract.
func TestHotSwapUnderLoad(t *testing.T) {
	dbA := dbFromText(t, whoisIRR)
	dbB := dbFromText(t, swapIRR)

	s := NewServer(dbA)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr().String()

	const (
		clients          = 4
		queriesPerClient = 50
		swaps            = 15
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
				resp, err := QueryServer(addr, "AS15169")
				if err != nil {
					failures.Add(1)
					t.Errorf("query failed mid-swap: %v", err)
					return
				}
				if !strings.Contains(resp, "aut-num:        AS15169") {
					failures.Add(1)
					t.Errorf("torn response: %q", resp)
					return
				}
			}
		}()
	}
	close(start)
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			s.SetDB(dbB)
		} else {
			s.SetDB(dbA)
		}
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during hot swaps", n)
	}
}

// TestSetDBSwapsAnswers proves a swap actually changes what is served:
// a route present only in the second snapshot appears after SetDB, and
// one withdrawn disappears.
func TestSetDBSwapsAnswers(t *testing.T) {
	s := NewServer(dbFromText(t, whoisIRR))
	if !strings.Contains(s.Query("8.8.4.4"), "8.8.4.0/24") {
		t.Fatal("base snapshot missing 8.8.4.0/24")
	}
	s.SetDB(dbFromText(t, swapIRR))
	if !strings.Contains(s.Query("8.8.6.6"), "8.8.6.0/24") {
		t.Error("swapped snapshot should serve 8.8.6.0/24")
	}
	if !strings.Contains(s.Query("8.8.4.4"), "no entries") {
		t.Error("swapped snapshot should not serve withdrawn 8.8.4.0/24")
	}
	s.SetDB(nil) // ignored: never serve a nil database
	if !strings.Contains(s.Query("8.8.6.6"), "8.8.6.0/24") {
		t.Error("SetDB(nil) must keep the previous snapshot")
	}
}

func TestQuerySerials(t *testing.T) {
	s := newTestServer(t)
	if got := s.Query("!j"); got != "D\n" {
		t.Errorf("!j without serial source = %q, want D", got)
	}
	s.SerialSource = func() map[string]uint64 {
		return map[string]uint64{"RADB": 42, "RIPE": 7}
	}
	want := frameIRRd("RADB:Y:42\nRIPE:Y:7")
	if got := s.Query("!j"); got != want {
		t.Errorf("!j = %q, want %q", got, want)
	}
	if got := s.Query("!j-*"); got != want {
		t.Errorf("!j-* = %q, want %q", got, want)
	}
	if got, want := s.Query("!jRIPE"), frameIRRd("RIPE:Y:7"); got != want {
		t.Errorf("!jRIPE = %q, want %q", got, want)
	}
	if got := s.Query("!jARIN"); got != "D\n" {
		t.Errorf("!j for unmirrored registry = %q, want D", got)
	}
}
