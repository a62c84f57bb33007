// Package shard defines the partition the verifier's bulk sweep is
// keyed by — a stable hash of a route's origin ASN, so every route of
// one origin, and every pair of routes that can share work, lands in
// one partition — and Each, which runs the GOMAXPROCS-range passes of
// the route dump reader, the route database's index build and the
// store freeze.
//
// The hash must be stable across processes and releases, so that a
// route's partition never depends on build order and the sweep's
// output stays byte-identical at any partition count.
package shard

import (
	"sync"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/telemetry"
)

// Of maps an origin ASN to a shard index in [0, n). n <= 1 always
// returns 0 (the unsharded fast path). The mixer is the splitmix64
// finalizer — ASNs are assigned in dense runs per registry, so a
// multiplicative mix is needed to keep consecutive ASNs from landing
// on consecutive shards of a small modulus.
func Of(asn ir.ASN, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(asn)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Each runs f on every part, the first on the calling goroutine and
// every other on its own, and returns when all are done. The passes that
// cut their input into GOMAXPROCS contiguous ranges (the route dump
// reader, the route database's per-origin tables, the store freeze)
// run through it.
func Each[T any](parts []T, f func(*T)) {
	var wg sync.WaitGroup
	for p := 1; p < len(parts); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(&parts[p])
		}()
	}
	if len(parts) > 0 {
		f(&parts[0])
	}
	wg.Wait()
}

// Counts tallies per-shard ownership for a route universe: it maps
// every route's origin through Of and counts routes per shard.
func Counts(origins []ir.ASN, n int) []int {
	counts := make([]int, max(n, 1))
	for _, o := range origins {
		counts[Of(o, n)]++
	}
	return counts
}

// Imbalance is the load-balance figure of merit: the largest shard's
// route count divided by the mean. 1.0 is a perfect split; the
// verify.sh smoke holds the synthetic corpus under 2.0. Zero-route
// universes report 1.0.
func Imbalance(counts []int) float64 {
	if len(counts) == 0 {
		return 1.0
	}
	total, peak := 0, 0
	for _, c := range counts {
		total += c
		if c > peak {
			peak = c
		}
	}
	if total == 0 {
		return 1.0
	}
	mean := float64(total) / float64(len(counts))
	return float64(peak) / mean
}

// Metrics mirrors the verifier's partition plan into a telemetry
// registry.
type Metrics struct {
	imbalance *telemetry.Gauge // imbalance x1000, integer gauge
	shards    *telemetry.Gauge
	fanout    *telemetry.Histogram
}

// NewMetrics registers the rpslyzer_shard_* metrics on a registry.
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		imbalance: r.Gauge("rpslyzer_shard_imbalance_millis",
			"Peak-to-mean shard route imbalance x1000 (1000 = perfectly even)."),
		shards: r.Gauge("rpslyzer_shard_count",
			"Number of partitions the verifier's last sweep scattered routes into."),
		fanout: r.Histogram("rpslyzer_shard_fanout_seconds",
			"Wall time of one verification sweep across its partitions, observed once per sweep.",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}),
	}
}

// ObservePlan records a shard plan, given its per-shard route counts:
// the shard count and the imbalance gauge, both of the current plan.
func (m *Metrics) ObservePlan(counts []int) {
	if m == nil {
		return
	}
	m.shards.Set(int64(len(counts)))
	m.imbalance.Set(int64(Imbalance(counts) * 1000))
}

// ObserveFanout records one verification sweep's wall time in seconds.
func (m *Metrics) ObserveFanout(seconds float64) {
	if m == nil {
		return
	}
	m.fanout.Observe(seconds)
}
