package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpslyzer/internal/ir"
)

// ClassTotals sums the IR's per-source object counts into per-class
// totals (the summary view of Table 1's columns).
func ClassTotals(x *ir.IR) map[string]int {
	totals := make(map[string]int)
	for _, classes := range x.Counts {
		for class, n := range classes {
			totals[class] += n
		}
	}
	return totals
}

// ThroughputLine renders the -summary line of one ingestion run from
// the pipeline counters' values, guarding against zero elapsed time on
// tiny inputs. When errsBySource is not empty, a per-registry error
// breakdown follows on a second line, sources sorted by descending
// count then name.
func ThroughputLine(bytes, objects, chunks int64, errsBySource map[string]int64, workers int, elapsed time.Duration) string {
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	sources := make([]string, 0, len(errsBySource))
	var errs int64
	for src, n := range errsBySource {
		sources = append(sources, src)
		errs += n
	}
	line := fmt.Sprintf("pipeline: %.1f MiB/s, %.0f objects/s (%d objects, %d chunks, %d workers, %d parse errors)",
		float64(bytes)/(1<<20)/sec, float64(objects)/sec, objects, chunks, workers, errs)
	if len(sources) == 0 {
		return line
	}
	sort.Slice(sources, func(i, j int) bool {
		if errsBySource[sources[i]] != errsBySource[sources[j]] {
			return errsBySource[sources[i]] > errsBySource[sources[j]]
		}
		return sources[i] < sources[j]
	})
	for i, src := range sources {
		sources[i] = fmt.Sprintf("%s=%d", src, errsBySource[src])
	}
	return line + "\nparse errors by registry: " + strings.Join(sources, " ")
}
