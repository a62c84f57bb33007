package whois

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rpslyzer/internal/nrtm"
)

// swap is the journal that moves whoisIRR's routes on a mirror at
// serial: forward withdraws 8.8.4.0/24 and adds 8.8.6.0/24, and the
// other direction undoes it.
func swap(serial uint64, forward bool) []*nrtm.Journal {
	const r4 = "route: 8.8.4.0/24\norigin: AS15169\nsource: RADB\n"
	const r6 = "route: 8.8.6.0/24\norigin: AS15169\nsource: RADB\n"
	add, del := r6, r4
	if !forward {
		add, del = r4, r6
	}
	return []*nrtm.Journal{{Registry: "RADB", First: serial, Last: serial, Ops: []nrtm.Op{
		{Serial: serial, Action: nrtm.OpAdd, Object: add},
		{Serial: serial, Action: nrtm.OpDel, Object: del},
	}}}
}

// TestHotSwapUnderLoad hammers a live server with concurrent TCP
// queries while its mirror applies journals back and forth. Every query
// must succeed and return one of the two snapshots' answers — no
// errors, no torn reads. Run with -race to check the atomic-pointer
// contract.
func TestHotSwapUnderLoad(t *testing.T) {
	s := newTestServer(t)
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
				resp, err := QueryServer(addr, "-i origin AS15169")
				if err != nil {
					failures.Add(1)
					t.Errorf("query failed mid-swap: %v", err)
					return
				}
				if strings.Count(resp, "route:") != 2 || !strings.Contains(resp, "8.8.8.0/24") {
					failures.Add(1)
					t.Errorf("torn response: %q", resp)
					return
				}
			}
		}()
	}
	close(start)
	for i := 1; i <= swaps; i++ {
		if _, err := s.Mirror.ApplyAllKeys(swap(uint64(i), i%2 == 1)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during hot swaps", n)
	}
}

// TestMirrorApplySwapsAnswers proves an apply actually changes what is
// served: a route the journal adds appears, one it withdraws
// disappears, and a batch the mirror rejects changes nothing.
func TestMirrorApplySwapsAnswers(t *testing.T) {
	s := newTestServer(t)
	if !strings.Contains(s.Query("8.8.4.4"), "8.8.4.0/24") {
		t.Fatal("base snapshot missing 8.8.4.0/24")
	}
	if _, err := s.Mirror.ApplyAllKeys(swap(1, true)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Query("8.8.6.6"), "8.8.6.0/24") {
		t.Error("applied snapshot should serve 8.8.6.0/24")
	}
	if !strings.Contains(s.Query("8.8.4.4"), "no entries") {
		t.Error("applied snapshot should not serve withdrawn 8.8.4.0/24")
	}
	if _, err := s.Mirror.ApplyAllKeys(swap(3, false)); err == nil {
		t.Fatal("a journal past a serial gap applied")
	}
	if !strings.Contains(s.Query("8.8.6.6"), "8.8.6.0/24") {
		t.Error("a rejected journal must keep the previous snapshot")
	}
}

func TestQuerySerials(t *testing.T) {
	s := newTestServer(t)
	if got := s.Query("!j"); got != "D\n" {
		t.Errorf("!j before any journal = %q, want D", got)
	}
	s.Mirror = nrtm.NewMirrorDB(s.Mirror.DB(), map[string]uint64{"RADB": 42, "RIPE": 7}, nil)
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
