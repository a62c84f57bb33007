package parser

import "fmt"

// ParseOne decodes text, a single RPSL object in dump syntax, as one
// chunk of source through ParseChunk: exactly what a dump parse makes
// of that object. It returns the object's class and the chunk's result.
// res.Flat holds the one decoded value, or nothing for a class the
// parser does not decompose or an object it rejects (an aut-num with a
// bad name, a route without a valid prefix or origin; res.IR.Errors
// says why). Attribute-level errors are not rejections: the object is
// kept with them, as in a dump. Text holding no object or several is an
// error.
func ParseOne(text, source string) (string, ChunkResult, error) {
	res := ParseChunk(Chunk{Source: source, Text: []byte(text), FirstLine: 1}, 0, 0)
	if res.Objects != 1 {
		return "", res, fmt.Errorf("parser: text holds %d objects, want one", res.Objects)
	}
	// The builder counted its one object under its class.
	var class string
	for class = range res.IR.Counts[source] {
	}
	return class, res, nil
}
