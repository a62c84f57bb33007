package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of v
// exactly as Python's statistics.quantiles(v, n=4) does (the
// "exclusive" method), so -compare and -selfcheck judge spreads the way
// the benchmark driver does. One value is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank-below rule and how many samples lie beyond
// it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	i := min(int(float64(len(sorted))*p/100), len(sorted)-1)
	return sorted[i], len(sorted) - 1 - i
}

// tailCandidates are the percentiles op_tail_ms may report. The list
// stops at 99 so that a run with 10^5 samples and one with 10^6 report
// the same percentile.
var tailCandidates = []float64{99, 90, 50}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; with too few samples for any, it
// falls back to the median. sorted must be ascending and non-empty.
func tailPercentile(sorted []float64) (p, value float64) {
	for _, p := range tailCandidates {
		if v, beyond := percentile(sorted, p); beyond >= 10 {
			return p, v
		}
	}
	v, _ := percentile(sorted, 50)
	return 50, v
}

// opStats summarises one run's operation latencies (ms).
type opStats struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	P90     float64 `json:"p90_ms"`
	Max     float64 `json:"max_ms"`
}

func summarize(ms []float64) opStats {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	st := opStats{N: len(s), P50: median(s), Max: s[len(s)-1]}
	st.P90, _ = percentile(s, 90)
	st.TailPct, st.Tail = tailPercentile(s)
	return st
}
