package irr

import (
	"sort"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// tarjan computes strongly connected components of a directed graph
// over string-named nodes. Components are returned in reverse
// topological order of the condensation: every edge leaving a
// component points into an earlier-returned component.
func tarjan(nodes []string, edges map[string][]string) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 0

	// Iterative Tarjan to survive deep as-set chains without blowing
	// the goroutine stack.
	type frame struct {
		node string
		ei   int
	}
	for _, start := range nodes {
		if _, seen := index[start]; seen {
			continue
		}
		frames := []frame{{node: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.ei < len(edges[f.node]) {
				w := edges[f.node][f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
					advanced = true
					break
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
			}
			if advanced {
				continue
			}
			// Done with f.node.
			if low[f.node] == index[f.node] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.node {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[f.node] < low[parent] {
					low[parent] = low[f.node]
				}
			}
		}
	}
	return sccs
}

// ReflattenRouteSets computes the prefix closure of every route-set
// from the current indexes, for a full build and after a batch of
// mutations alike. Route-set members may be prefixes, other route-sets
// (with optional range operators), as-sets, or ASNs; as-sets and ASNs
// contribute the prefixes of their route objects, and the member
// origins are recorded for the relaxed "missing routes" check. Any
// route or as-set change can shift the closure, and recomputing the
// whole (comparatively small) route-set layer is simpler than tracking
// that dependency graph.
func (db *Database) ReflattenRouteSets() {
	sets := db.IR.RouteSets
	nodes := make([]string, 0, len(sets))
	edges := make(map[string][]string, len(sets))
	for name, s := range sets {
		nodes = append(nodes, name)
		for _, m := range s.Members {
			if m.Kind == ir.RSMemberSet {
				if _, recorded := sets[m.Name]; recorded {
					edges[name] = append(edges[name], m.Name)
				}
			}
		}
	}
	sort.Strings(nodes)
	sccs := tarjan(nodes, edges)
	sccOf := make(map[string]int, len(nodes))
	for i, scc := range sccs {
		for _, n := range scc {
			sccOf[n] = i
		}
	}

	type sccAgg struct {
		ranges     []prefix.Range
		origins    map[ir.ASN]struct{}
		unrecorded map[string]struct{}
	}
	aggs := make([]sccAgg, len(sccs))
	flat := make(map[string]*FlatRouteSet, len(sets))
	for i, scc := range sccs {
		agg := sccAgg{
			origins:    make(map[ir.ASN]struct{}),
			unrecorded: make(map[string]struct{}),
		}
		selfLoop := false
		for _, name := range scc {
			s := sets[name]
			agg.ranges = append(agg.ranges, db.routeSetIndirectOf(name)...)
			for _, m := range s.Members {
				switch m.Kind {
				case ir.RSMemberPrefix:
					agg.ranges = append(agg.ranges, m.Prefix)
				case ir.RSMemberASN:
					agg.origins[m.ASN] = struct{}{}
					if t := db.routeTableOf(m.ASN); t != nil {
						for _, e := range t.Entries() {
							agg.ranges = append(agg.ranges,
								prefix.Range{Prefix: e.Prefix, Op: prefix.Compose(e.Op, m.Op)})
						}
					}
				case ir.RSMemberSet:
					// An as-set member contributes the route objects of
					// its flattened member ASes.
					if fa := db.flatAsSetOf(m.Name); fa != nil {
						for asn := range fa.ASNs {
							agg.origins[asn] = struct{}{}
							if t := db.routeTableOf(asn); t != nil {
								for _, e := range t.Entries() {
									agg.ranges = append(agg.ranges,
										prefix.Range{Prefix: e.Prefix, Op: prefix.Compose(e.Op, m.Op)})
								}
							}
						}
						continue
					}
					child, recorded := sccOf[m.Name]
					if !recorded {
						agg.unrecorded[m.Name] = struct{}{}
						continue
					}
					if child == i {
						selfLoop = true
						continue
					}
					for _, r := range aggs[child].ranges {
						agg.ranges = append(agg.ranges,
							prefix.Range{Prefix: r.Prefix, Op: prefix.Compose(r.Op, m.Op)})
					}
					for a := range aggs[child].origins {
						agg.origins[a] = struct{}{}
					}
					for u := range aggs[child].unrecorded {
						agg.unrecorded[u] = struct{}{}
					}
				}
			}
		}
		aggs[i] = agg
		inLoop := len(scc) > 1 || selfLoop
		tbl := prefix.NewTable(agg.ranges)
		for _, name := range scc {
			unrec := make([]string, 0, len(agg.unrecorded))
			for u := range agg.unrecorded {
				unrec = append(unrec, u)
			}
			sort.Strings(unrec)
			flat[name] = &FlatRouteSet{
				Name:       name,
				Table:      tbl,
				Origins:    agg.origins,
				Unrecorded: unrec,
				InLoop:     inLoop,
			}
		}
	}
	// Assign a fresh slice so snapshots sharing the old one are
	// untouched (mutations run on clones).
	out := make([]*FlatRouteSet, 0, db.syms.RouteSets.Len())
	for name, f := range flat {
		out = slicePut(out, db.syms.RouteSets.Intern(name), f)
	}
	db.flatRouteSets = out
}
