package ir

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON exports the IR as JSON to w. The encoding is stable and
// self-describing: enum fields marshal as their names, so other tools
// (in any language) can consume the IR, mirroring the paper's JSON
// export for integration.
func (x *IR) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("ir: encode: %w", err)
	}
	return nil
}

// ReadJSON imports an IR previously written with WriteJSON.
func ReadJSON(r io.Reader) (*IR, error) {
	x := New()
	dec := json.NewDecoder(r)
	if err := dec.Decode(x); err != nil {
		return nil, fmt.Errorf("ir: decode: %w", err)
	}
	// Re-allocate nil maps so callers can insert.
	if x.AutNums == nil {
		x.AutNums = make(map[ASN]*AutNum)
	}
	if x.AsSets == nil {
		x.AsSets = make(map[string]*AsSet)
	}
	if x.RouteSets == nil {
		x.RouteSets = make(map[string]*RouteSet)
	}
	if x.PeeringSets == nil {
		x.PeeringSets = make(map[string]*PeeringSet)
	}
	if x.FilterSets == nil {
		x.FilterSets = make(map[string]*FilterSet)
	}
	if x.InetRtrs == nil {
		x.InetRtrs = make(map[string]*InetRtr)
	}
	if x.RtrSets == nil {
		x.RtrSets = make(map[string]*RtrSet)
	}
	if x.Counts == nil {
		x.Counts = make(map[string]map[string]int)
	}
	return x, nil
}
