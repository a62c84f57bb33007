package parser

import (
	"cmp"
	"slices"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// Merge folds one feed's chunk results into one IR. Results may arrive
// in any order; those ahead of the next sequence number wait until it
// comes, so the merge sees the feed in order and the result does not
// depend on the pool. m, when non-nil, records the wait's depth.
//
// The merge holds the registry-priority rule of the paper's Table 1:
// the first definition of a name in feed order wins, route objects are
// kept once per (prefix, origin, source), each dump's reader
// diagnostics follow its objects' parse errors, and a read error comes
// last for its dump.
func Merge(results <-chan ChunkResult, m *PipelineMetrics) *ir.IR {
	mg := newMerger()
	pending := make(map[int]ChunkResult)
	next := 0
	for res := range results {
		pending[res.Seq] = res
		m.ObserveReorderDepth(len(pending))
		for r, ok := pending[next]; ok; r, ok = pending[next] {
			delete(pending, next)
			mg.add(r)
			next++
		}
	}
	return mg.finish()
}

// DumpText is one registry's dump held in memory.
type DumpText struct {
	Source, Text string
}

// ParseText parses the dump text of one registry: the text is one
// chunk through ParseChunk and the merge, on the calling goroutine.
func ParseText(text, source string) *ir.IR {
	return ParseTexts(DumpText{source, text})
}

// ParseTexts is ParseText over several dumps, fed in priority order.
func ParseTexts(dumps ...DumpText) *ir.IR {
	mg := newMerger()
	for i, d := range dumps {
		mg.add(ParseChunk(Chunk{Source: d.Source, DumpIndex: i, Text: []byte(d.Text), FirstLine: 1}, i, 0))
	}
	return mg.finish()
}

// merger accumulates chunk results, fed in sequence order, into one IR.
type merger struct {
	out     *ir.IR
	curDump int
	diags   []ir.ParseError
	// routes holds every chunk's route objects in feed order, nroutes
	// of them; finish deduplicates them once that number is known.
	// sources numbers the registry names, so that a key holds an int,
	// not the name.
	routes  []sourceRoutes
	nroutes int
	sources map[string]int
}

type sourceRoutes struct {
	source int
	routes []*ir.RouteObject
}

func newMerger() *merger {
	return &merger{out: ir.New(), sources: make(map[string]int), curDump: -1}
}

// firstWins adds to m the values whose name it does not hold yet.
func firstWins[K comparable, V any](m map[K]V, vals []V, name func(V) K) {
	for _, v := range vals {
		k := name(v)
		if _, dup := m[k]; !dup {
			m[k] = v
		}
	}
}

func (m *merger) add(res ChunkResult) {
	if res.DumpIndex != m.curDump {
		m.flushDiags()
		m.curDump = res.DumpIndex
	}
	f, out := res.Flat, m.out
	firstWins(out.AutNums, f.AutNums, func(a *ir.AutNum) ir.ASN { return a.ASN })
	firstWins(out.AsSets, f.AsSets, func(s *ir.AsSet) string { return s.Name })
	firstWins(out.RouteSets, f.RouteSets, func(s *ir.RouteSet) string { return s.Name })
	firstWins(out.PeeringSets, f.PeeringSets, func(s *ir.PeeringSet) string { return s.Name })
	firstWins(out.FilterSets, f.FilterSets, func(s *ir.FilterSet) string { return s.Name })
	firstWins(out.InetRtrs, f.InetRtrs, func(s *ir.InetRtr) string { return s.Name })
	firstWins(out.RtrSets, f.RtrSets, func(s *ir.RtrSet) string { return s.Name })
	if len(f.Routes) > 0 {
		id, ok := m.sources[res.Source]
		if !ok {
			id = len(m.sources)
			m.sources[res.Source] = id
		}
		m.routes = append(m.routes, sourceRoutes{id, f.Routes})
		m.nroutes += len(f.Routes)
	}
	out.Errors = append(out.Errors, res.IR.Errors...)
	m.diags = append(m.diags, res.Diags...)
	for src, classes := range res.IR.Counts {
		dst := out.Counts[src]
		if dst == nil {
			dst = make(map[string]int, len(classes))
			out.Counts[src] = dst
		}
		for class, n := range classes {
			dst[class] += n
		}
	}
}

// flushDiags records the finished dump's reader diagnostics behind its
// objects' parse errors.
func (m *merger) flushDiags() {
	m.out.Errors = append(m.out.Errors, m.diags...)
	m.diags = nil
}

// finish keeps every (prefix, origin, source) route tuple once, in feed
// order (none leaves Routes nil), and returns the IR. The routes'
// prefix Keys are sorted with their feed positions, stably, so each
// prefix's routes form a run in feed order; a run sorted on (origin,
// source, position) then heads each tuple with its first route. The
// kept routes are emitted in feed order.
func (m *merger) finish() *ir.IR {
	m.flushDiags()
	if m.nroutes == 0 {
		return m.out
	}
	routes, sources := make([]*ir.RouteObject, 0, m.nroutes), make([]int32, 0, m.nroutes)
	keys := make([]prefix.PosKey, 0, m.nroutes)
	for _, c := range m.routes {
		for _, r := range c.routes {
			keys = append(keys, r.Prefix.Key().At(len(routes)))
			routes, sources = append(routes, r), append(sources, int32(c.source))
		}
	}
	prefix.SortKeys(keys)
	tuple := func(a, b prefix.PosKey) int {
		if c := cmp.Compare(routes[a.Pos].Origin, routes[b.Pos].Origin); c != 0 {
			return c
		}
		return cmp.Compare(sources[a.Pos], sources[b.Pos])
	}
	keep := make([]bool, len(routes))
	kept := 0
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].Key() == keys[lo].Key() {
			hi++
		}
		run := keys[lo:hi]
		if len(run) > 1 {
			slices.SortStableFunc(run, tuple)
		}
		for i, k := range run {
			if i == 0 || tuple(run[i-1], k) != 0 {
				keep[k.Pos] = true
				kept++
			}
		}
		lo = hi
	}
	m.out.Routes = make([]*ir.RouteObject, 0, kept)
	for pos, r := range routes {
		if keep[pos] {
			m.out.Routes = append(m.out.Routes, r)
		}
	}
	return m.out
}
