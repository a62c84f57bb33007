package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

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
// error: the aggregator and the store would count it differently.
func (j RouteReportJSON) Report() (verify.RouteReport, error) {
	p, err := prefix.Parse(j.Prefix)
	if err != nil {
		return verify.RouteReport{}, fmt.Errorf("report: bad prefix %q: %w", j.Prefix, err)
	}
	if j.Ignored != "" && (len(j.Checks) > 0 || j.Ignored != "as-set" && j.Ignored != "single-as") {
		return verify.RouteReport{}, fmt.Errorf("report: %s: ignored %q with %d checks is no verifier's report", j.Prefix, j.Ignored, len(j.Checks))
	}
	rep := verify.RouteReport{
		Route:   bgpsim.Route{Prefix: p},
		Ignored: j.Ignored,
		Checks:  j.Checks,
	}
	for _, a := range j.Path {
		rep.Route.Path = append(rep.Route.Path, ir.ASN(a))
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
// calling sink for each (the streaming mirror of WriteJSONL, so
// importers never materialize the whole file).
func ReadJSONL(r io.Reader, sink func(verify.RouteReport)) error {
	dec := json.NewDecoder(bufio.NewReader(r))
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
		sink(rep)
	}
}
