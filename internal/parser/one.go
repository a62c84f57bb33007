package parser

import (
	"fmt"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/rpsl"
)

// ParseOne decodes a single RPSL object in dump syntax, attributing it
// to source (the registry label journals carry, mirroring how AddDump
// labels dump readers). It returns the raw object together with an IR
// holding exactly that one decoded object, so callers can pull the
// typed value out of the single-entry class map. Zero objects or
// trailing extra objects are errors. Attribute-level diagnostics are
// NOT errors: the builder keeps diagnosed objects in the IR (tools
// must see them to characterize broken policies), so a journal ADD of
// such an object must land exactly like its dump-parsed counterpart.
// The diagnostics are preserved in the returned IR's Errors.
func ParseOne(text, source string) (*rpsl.Object, *ir.IR, error) {
	r := rpsl.NewTextReader([]byte(text), source, 1)
	obj := r.Next()
	if obj == nil {
		return nil, nil, fmt.Errorf("parser: no object in text")
	}
	if extra := r.Next(); extra != nil {
		return nil, nil, fmt.Errorf("parser: multiple objects in text (%s and %s)", obj.Class, extra.Class)
	}
	b := NewBuilder()
	b.AddObject(obj)
	b.IR.Errors = append(b.IR.Errors, diagErrors(r.Diagnostics())...)
	return obj, b.IR, nil
}
