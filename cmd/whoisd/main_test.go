package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
)

// ask sends one whois query over TCP and returns the whole answer.
func ask(t *testing.T, addr net.Addr, q string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := fmt.Fprintf(c, "%s\r\n", q); err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(answer)
}

// TestMirrorMovesAnswers boots whoisd -mirror in-process over a 200-AS
// universe and an empty journal directory, then drops one journal file
// in: the aut-num it rewrites is answered from the new database and !j
// reports the journal's last serial.
func TestMirrorMovesAnswers(t *testing.T) {
	dir, live := t.TempDir(), t.TempDir()
	sys, err := core.BuildSynthetic(core.Options{Seed: 5, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteUniverse(sys, nil, dir); err != nil {
		t.Fatal(err)
	}
	next := irrgen.Evolve(sys.IR, 1, irrgen.EvolveConfig{Seed: 5, PolicyChurnFrac: 0.05})
	var journal *nrtm.Journal
	var asn string
pick:
	for _, j := range evolve.Compare(sys.IR, next).ToJournals(sys.IR, next, nil) {
		for _, op := range j.Ops {
			if rest, ok := strings.CutPrefix(op.Object, "aut-num:"); ok && op.Action == nrtm.OpAdd {
				line, _, _ := strings.Cut(rest, "\n")
				journal, asn = j, strings.TrimSpace(line)
				break pick
			}
		}
	}
	if journal == nil {
		t.Fatal("one evolution step rewrote no aut-num")
	}

	f := parseFlags([]string{"-dumps", dir, "-mirror", live, "-mirror-interval", "10ms", "-listen", "127.0.0.1:0"})
	p := &daemon.Process{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: telemetry.NewRegistry("whoisd_test"), Tracer: trace.New(trace.Config{})}
	srv, err := serve(f, p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer p.Stop()

	// The start-up is one trace under the names reportd's boot and the
	// benchmark's ingest-20k layers use.
	booted := map[string]bool{}
	for _, tr := range p.Tracer.Recent() {
		if ex := tr.Export(); ex.Stage == "rebuild" && ex.Spans[0].Name == "boot" {
			for _, sp := range ex.Spans[1:] {
				booted[sp.Name] = sp.Parent == ex.Spans[0].ID
			}
		}
	}
	if !booted["core.load_dumps"] || !booted["irr.index"] {
		t.Errorf("boot trace children = %v, want core.load_dumps and irr.index", booted)
	}

	before := ask(t, srv.Addr(), asn)
	if !strings.Contains(before, asn) {
		t.Fatalf("%s not served from the dumps:\n%s", asn, before)
	}
	if got := ask(t, srv.Addr(), "!j"+journal.Registry); got != "D\n" {
		t.Fatalf("!j before any journal = %q, want D", got)
	}

	// Written beside the directory and renamed in, so the poll loop
	// never reads half a file.
	tmp := filepath.Join(dir, "step.nrtm")
	if err := nrtm.WriteJournalFile(tmp, journal); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(live, "000001."+journal.Registry+".nrtm")); err != nil {
		t.Fatal(err)
	}
	serial := fmt.Sprintf("%s:Y:%d\n", journal.Registry, journal.Last)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(ask(t, srv.Addr(), "!j"+journal.Registry), serial); {
		if time.Now().After(deadline) {
			t.Fatalf("!j never reported %q", serial)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := ask(t, srv.Addr(), asn); after == before || !strings.Contains(after, asn) {
		t.Fatalf("%s answered alike before and after its journal:\n%s", asn, after)
	}
}
