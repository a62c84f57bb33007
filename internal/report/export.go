package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"slices"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/verify"
)

// RouteReportJSON is the stable on-disk serialization of one route's
// verification report: one JSON object per line (JSONL), fields in
// declaration order, reason kinds and statuses as their printed names.
// cmd/verify -json writes this format and reportd -import reads it
// back, so reports can be generated offline and served later.
type RouteReportJSON struct {
	Prefix  string         `json:"prefix"`
	Path    []uint32       `json:"path"`
	Ignored string         `json:"ignored,omitempty"`
	Checks  []verify.Check `json:"checks,omitempty"`
}

// ToJSON converts a route report to its serialized form.
func ToJSON(rep verify.RouteReport) RouteReportJSON {
	out := RouteReportJSON{
		Prefix:  rep.Route.Prefix.String(),
		Ignored: rep.Ignored,
		Checks:  rep.Checks,
	}
	for _, a := range rep.Route.Path {
		out.Path = append(out.Path, uint32(a))
	}
	return out
}

// Report reconstructs the in-memory route report. Only the route
// fields the report pipeline consumes (prefix and AS-path) round-trip;
// communities and the AS-set flag are already folded into Checks and
// Ignored at verification time. A report no verifier writes is an
// error, since the figures would count it as something it is not: a
// verified route without checks, say, as a route of three or more
// statuses.
func (j RouteReportJSON) Report() (verify.RouteReport, error) {
	p, err := prefix.Parse(j.Prefix)
	if err != nil {
		return verify.RouteReport{}, fmt.Errorf("report: bad prefix %q: %w", j.Prefix, err)
	}
	if j.Ignored != "" && (len(j.Checks) > 0 || j.Ignored != "as-set" && j.Ignored != "single-as") {
		return verify.RouteReport{}, fmt.Errorf("report: %s: ignored %q with %d checks is no verifier's report", j.Prefix, j.Ignored, len(j.Checks))
	}
	// A verified route has two checks per hop of its prepend-free path,
	// and at least one hop.
	hops := 0
	for i := 1; i < len(j.Path); i++ {
		if j.Path[i] != j.Path[i-1] {
			hops++
		}
	}
	if j.Ignored == "" && (hops == 0 || len(j.Checks) != 2*hops) {
		return verify.RouteReport{}, fmt.Errorf("report: %s: %d checks over %d hops is no verifier's report", j.Prefix, len(j.Checks), hops)
	}
	rep := verify.RouteReport{
		Route:   bgpsim.Route{Prefix: p},
		Ignored: j.Ignored,
		Checks:  j.Checks,
	}
	if len(j.Path) > 0 {
		rep.Route.Path = make([]ir.ASN, len(j.Path))
		for i, a := range j.Path {
			rep.Route.Path[i] = ir.ASN(a)
		}
	}
	return rep, nil
}

// WriteJSONL streams reports to w as JSON lines.
func WriteJSONL(w io.Writer, reports []verify.RouteReport) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rep := range reports {
		if err := enc.Encode(ToJSON(rep)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSONL report stream back into route reports,
// calling sink for each (the streaming mirror of WriteJSONL). Like a
// sweep's, the reports share memory: one copy of each distinct reason
// list and name, checks cut from blocks, and one check slice for a run
// of reports whose checks are equal. Read them, never write them.
func ReadJSONL(r io.Reader, sink func(verify.RouteReport)) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	in := interner{seed: maphash.MakeSeed(), lists: make(map[uint64][]verify.Reason), names: make(map[string]string)}
	for line := 1; ; line++ {
		var j RouteReportJSON
		if err := dec.Decode(&j); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("line %d: %w", line, err)
		}
		rep, err := j.Report()
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		in.keep(&rep)
		sink(rep)
	}
}

// interner lays out what the reports of one stream keep the way a sweep
// lays out its own: checks in exact-size ranges of shared blocks, one
// copy of each distinct reason list and of each name in those lists,
// and a report's checks kept once for a run of reports that have them.
type interner struct {
	seed  maphash.Seed
	lists map[uint64][]verify.Reason
	names map[string]string
	block []verify.Check
	prev  []verify.Check // the checks kept last
}

// keep moves rep's checks into the current block, replacing each reason
// list with the first one of the same content, or points them at the
// previous report's when the two are then the same.
func (in *interner) keep(rep *verify.RouteReport) {
	if len(rep.Checks) == 0 {
		return
	}
	if len(in.block)+len(rep.Checks) > cap(in.block) {
		in.block = make([]verify.Check, 0, max(4096, len(rep.Checks)))
	}
	off := len(in.block)
	in.block = append(in.block, rep.Checks...)
	rep.Checks = in.block[off:len(in.block):len(in.block)]
	for i := range rep.Checks {
		rep.Checks[i].Reasons = in.list(rep.Checks[i].Reasons)
	}
	if verify.SameChecks(rep.Checks, in.prev) {
		in.block, rep.Checks = in.block[:off], in.prev
		return
	}
	in.prev = rep.Checks
}

// list returns the copy of rs to keep. The hash is a hint and the compare
// decides: a collision costs a second copy, never a wrong reason.
func (in *interner) list(rs []verify.Reason) []verify.Reason {
	if len(rs) == 0 {
		return rs
	}
	h := verify.HashReasons(in.seed, uint64(len(rs)), rs)
	if l, ok := in.lists[h]; ok && slices.Equal(l, rs) {
		return l
	}
	for i := range rs {
		if name, ok := in.names[rs[i].Name]; ok {
			rs[i].Name = name
		} else {
			in.names[rs[i].Name] = rs[i].Name
		}
	}
	in.lists[h] = rs
	return rs
}
