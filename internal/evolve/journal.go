package evolve

import (
	"sort"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/render"
)

// This file exports snapshot diffs as NRTM journals: any two parsed
// snapshots produce per-registry replayable deltas. The diff is
// computed over canonical render text, so it is complete (every class,
// every attribute) rather than limited to the summary fields Diff
// tracks, and a journal applied by nrtm.Mirror reproduces the new
// snapshot's render exactly.
//
// Operations are attributed to registries by object source: a DEL
// goes to the registry that held the old object, an ADD (creation or
// replacement) to the one holding the new. Within a registry, DELs
// precede ADDs; keyed classes are emitted in sorted key order and
// route ADDs in newIR.Routes order, preserving the dump render order
// an incremental mirror maintains.

// ToJournals exports the old → new delta as one journal per affected
// registry, numbering each journal's serials from serials[registry]+1
// and advancing the map (a nil map starts every registry at serial 0
// and is not advanced). Registries are returned in sorted order; an
// empty delta returns nil.
func (d *Diff) ToJournals(oldIR, newIR *ir.IR, serials map[string]uint64) []*nrtm.Journal {
	drafts := diffOps(oldIR, newIR)
	regs := make([]string, 0, len(drafts))
	for reg := range drafts {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	var out []*nrtm.Journal
	for _, reg := range regs {
		first := uint64(1)
		if serials != nil {
			first = serials[reg] + 1
		}
		j := assemble(reg, first, drafts[reg])
		if serials != nil {
			serials[reg] = j.Last
		}
		out = append(out, j)
	}
	return out
}

// opDraft is an operation before serial assignment.
type opDraft struct {
	action nrtm.Action
	object string
}

func assemble(registry string, first uint64, drafts []opDraft) *nrtm.Journal {
	j := &nrtm.Journal{Registry: registry, First: first, Last: first + uint64(len(drafts)) - 1}
	j.Ops = make([]nrtm.Op, len(drafts))
	for i, dr := range drafts {
		j.Ops[i] = nrtm.Op{Serial: first + uint64(i), Action: dr.action, Object: dr.object}
	}
	return j
}

// diffOps computes the per-registry operation lists.
func diffOps(oldIR, newIR *ir.IR) map[string][]opDraft {
	var dels, adds opCollector

	diffClass(&dels, &adds, oldIR.AutNums, newIR.AutNums,
		func(an *ir.AutNum) string { return an.Source },
		func(w *strings.Builder, an *ir.AutNum) { render.AutNum(w, an) })
	diffClass(&dels, &adds, oldIR.AsSets, newIR.AsSets,
		func(s *ir.AsSet) string { return s.Source },
		func(w *strings.Builder, s *ir.AsSet) { render.AsSet(w, s) })
	diffClass(&dels, &adds, oldIR.RouteSets, newIR.RouteSets,
		func(s *ir.RouteSet) string { return s.Source },
		func(w *strings.Builder, s *ir.RouteSet) { render.RouteSet(w, s) })
	diffClass(&dels, &adds, oldIR.PeeringSets, newIR.PeeringSets,
		func(s *ir.PeeringSet) string { return s.Source },
		func(w *strings.Builder, s *ir.PeeringSet) { render.PeeringSet(w, s) })
	diffClass(&dels, &adds, oldIR.FilterSets, newIR.FilterSets,
		func(s *ir.FilterSet) string { return s.Source },
		func(w *strings.Builder, s *ir.FilterSet) { render.FilterSet(w, s) })
	diffClass(&dels, &adds, oldIR.InetRtrs, newIR.InetRtrs,
		func(s *ir.InetRtr) string { return s.Source },
		func(w *strings.Builder, s *ir.InetRtr) { render.InetRtr(w, s) })
	diffClass(&dels, &adds, oldIR.RtrSets, newIR.RtrSets,
		func(s *ir.RtrSet) string { return s.Source },
		func(w *strings.Builder, s *ir.RtrSet) { render.RtrSet(w, s) })
	diffRoutes(&dels, &adds, oldIR, newIR)

	out := make(map[string][]opDraft)
	for reg, ops := range dels.byRegistry {
		out[reg] = append(out[reg], ops...)
	}
	for reg, ops := range adds.byRegistry {
		out[reg] = append(out[reg], ops...)
	}
	return out
}

// opCollector accumulates drafts per registry.
type opCollector struct {
	byRegistry map[string][]opDraft
}

func (c *opCollector) add(registry string, a nrtm.Action, object string) {
	if c.byRegistry == nil {
		c.byRegistry = make(map[string][]opDraft)
	}
	c.byRegistry[registry] = append(c.byRegistry[registry], opDraft{action: a, object: object})
}

// diffClass emits DELs for keys gone from new and ADDs for keys that
// are new or whose canonical render changed, in sorted key order.
func diffClass[K cmpOrdered, V any](dels, adds *opCollector, oldM, newM map[K]V,
	source func(V) string, renderFn func(*strings.Builder, V)) {
	text := func(v V) string {
		var w strings.Builder
		renderFn(&w, v)
		return w.String()
	}
	for _, k := range sortedMapKeys(oldM) {
		if _, ok := newM[k]; !ok {
			old := oldM[k]
			dels.add(source(old), nrtm.OpDel, text(old))
		}
	}
	for _, k := range sortedMapKeys(newM) {
		nv := newM[k]
		if ov, ok := oldM[k]; ok {
			if text(ov) == text(nv) {
				continue
			}
		}
		adds.add(source(nv), nrtm.OpAdd, text(nv))
	}
}

// diffRoutes diffs route objects on their full identity (prefix,
// origin, source). DELs are emitted in oldIR.Routes order, ADDs in
// newIR.Routes order — the latter is what lets an incremental mirror
// reproduce the new snapshot's per-source dump order.
func diffRoutes(dels, adds *opCollector, oldIR, newIR *ir.IR) {
	type routeID struct {
		p   prefix.Prefix
		o   ir.ASN
		src string
	}
	oldByID := make(map[routeID]*ir.RouteObject, len(oldIR.Routes))
	for _, r := range oldIR.Routes {
		oldByID[routeID{r.Prefix, r.Origin, r.Source}] = r
	}
	newIDs := make(map[routeID]bool, len(newIR.Routes))
	text := func(r *ir.RouteObject) string {
		var w strings.Builder
		render.Route(&w, r)
		return w.String()
	}
	for _, r := range newIR.Routes {
		id := routeID{r.Prefix, r.Origin, r.Source}
		newIDs[id] = true
		if old, ok := oldByID[id]; ok && text(old) == text(r) {
			continue
		}
		adds.add(r.Source, nrtm.OpAdd, text(r))
	}
	for _, r := range oldIR.Routes {
		if !newIDs[routeID{r.Prefix, r.Origin, r.Source}] {
			dels.add(r.Source, nrtm.OpDel, text(r))
		}
	}
}

// cmpOrdered is the constraint for sortable map keys (set names and
// ASNs).
type cmpOrdered interface {
	~string | ~uint32 | ~uint64 | ~int
}

func sortedMapKeys[K cmpOrdered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
