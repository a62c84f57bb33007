package nrtm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/render"
	"rpslyzer/internal/trace"
)

// pollFixture evolves the synthetic universe n steps and writes each
// step's journals to dir, returning the base IR and the final IR.
func pollFixture(t *testing.T, dir string, steps int) (base, final *ir.IR) {
	t.Helper()
	base = synthIR(t, 120)
	cfg := irrgen.EvolveConfig{Seed: 11, PolicyChurnFrac: 0.03, SetChurnFrac: 0.03,
		RouteAddFrac: 0.02, RouteWithdrawFrac: 0.02}
	serials := make(map[string]uint64)
	prev := base
	for step := 1; step <= steps; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		diff := evolve.Compare(prev, next)
		for _, j := range diff.ToJournals(prev, next, serials) {
			name := fmt.Sprintf("%03d.%s.nrtm", step, j.Registry)
			if err := nrtm.WriteJournalFile(filepath.Join(dir, name), j); err != nil {
				t.Fatal(err)
			}
		}
		prev = next
	}
	return base, prev
}

// TestPollAppliesJournalsAndSwaps drives the shared mirror loop (the
// one behind whoisd/reportd -mirror) against a journal directory:
// every applied journal must invoke OnApply, and the final database
// must equal a direct parse of the evolved universe.
func TestPollAppliesJournalsAndSwaps(t *testing.T) {
	dir := t.TempDir()
	base, final := pollFixture(t, dir, 2)

	mir := nrtm.NewMirrorDB(irr.New(reparse(render.IR(base))), nil, nil)

	var mu sync.Mutex
	var swaps int
	var lastDB *irr.Database
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		nrtm.Poll(mir, nrtm.PollConfig{
			JournalDir: dir,
			Interval:   5 * time.Millisecond,
			OnApply: func(db *irr.Database, _ []depgraph.Key, _ *trace.Span) {
				mu.Lock()
				swaps++
				lastDB = db
				mu.Unlock()
			},
		}, stop)
	}()

	want := render.IR(reparse(render.IR(final)).Clone())
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		db := lastDB
		mu.Unlock()
		if db != nil {
			got := render.IR(db.IR)
			equal := true
			for _, reg := range irrgen.IRRs {
				if got[reg] != want[reg] {
					equal = false
					break
				}
			}
			if equal {
				break
			}
		}
		select {
		case <-deadline:
			close(stop)
			<-done
			t.Fatal("mirror never converged to the evolved universe")
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if swaps == 0 {
		t.Fatal("OnApply never invoked")
	}
	if mir.Resyncs() != 0 {
		t.Errorf("unexpected resyncs: %d", mir.Resyncs())
	}
}

// TestPollResyncsOnCorruptJournal: a journal the mirror cannot apply
// (here: one from a serial future, simulating a gap) forces a full
// resync through Reload, after which serving continues.
func TestPollResyncsOnCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	base, _ := pollFixture(t, dir, 1)

	// Corrupt the first journal on disk so applyOne fails.
	names, err := os.ReadDir(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no journals: %v", err)
	}
	victim := filepath.Join(dir, names[0].Name())
	if err := os.WriteFile(victim, []byte("%NRTM not really\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	mir := nrtm.NewMirrorDB(irr.New(reparse(render.IR(base))), nil, nil)
	var reloads int
	var mu sync.Mutex
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		nrtm.Poll(mir, nrtm.PollConfig{
			JournalDir: dir,
			Interval:   5 * time.Millisecond,
			Reload: func() (*ir.IR, error) {
				mu.Lock()
				reloads++
				mu.Unlock()
				return reparse(render.IR(base)), nil
			},
		}, stop)
	}()

	deadline := time.After(10 * time.Second)
	for {
		if mir.Resyncs() > 0 {
			break
		}
		select {
		case <-deadline:
			close(stop)
			<-done
			t.Fatal("corrupt journal never triggered a resync")
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	if reloads == 0 {
		t.Fatal("Reload never invoked")
	}
}
