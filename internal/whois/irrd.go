package whois

import (
	"fmt"
	"sort"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
)

// queryIRRd answers irrd-protocol short commands. Responses follow the
// irrd framing: "A<len>\n<data>\nC\n" on success, "D\n" for no data,
// "F <msg>\n" for errors.
func (s *Server) queryIRRd(db *irr.Database, q string) string {
	switch {
	case strings.HasPrefix(q, "!g"), strings.HasPrefix(q, "!6"):
		wantV6 := strings.HasPrefix(q, "!6")
		asn, err := ir.ParseASN(strings.TrimSpace(q[2:]))
		if err != nil {
			return "F bad AS number\n"
		}
		tbl, ok := db.RouteTable(asn)
		if !ok {
			return "D\n"
		}
		var prefixes []string
		for _, e := range tbl.Entries() {
			if e.Prefix.IsIPv6() == wantV6 {
				prefixes = append(prefixes, e.Prefix.String())
			}
		}
		if len(prefixes) == 0 {
			return "D\n"
		}
		return frameIRRd(strings.Join(prefixes, " "))
	case strings.HasPrefix(q, "!i"):
		arg := strings.TrimSpace(q[2:])
		recursive := false
		if name, found := strings.CutSuffix(arg, ",1"); found {
			recursive = true
			arg = name
		}
		name := strings.ToUpper(arg)
		// Membership goes through the symbol table: an interned ID is
		// the canonical "recorded" test, and the flattened closure is a
		// dense-slice lookup behind it.
		if _, interned := db.AsSetID(name); !interned {
			return "D\n"
		}
		if recursive {
			flat, ok := db.AsSet(name)
			if !ok {
				return "D\n"
			}
			members := make([]string, 0, len(flat.ASNs))
			for asn := range flat.ASNs {
				members = append(members, asn.String())
			}
			sort.Strings(members)
			if len(members) == 0 {
				return "D\n"
			}
			return frameIRRd(strings.Join(members, " "))
		}
		set, ok := db.IR.AsSets[name]
		if !ok {
			return "D\n"
		}
		var members []string
		for _, a := range set.MemberASNs {
			members = append(members, a.String())
		}
		members = append(members, set.MemberSets...)
		sort.Strings(members)
		if len(members) == 0 {
			return "D\n"
		}
		return frameIRRd(strings.Join(members, " "))
	case strings.HasPrefix(q, "!r"):
		return s.queryRoutes(db, strings.TrimSpace(q[2:]))
	case strings.HasPrefix(q, "!j"):
		return s.querySerials(strings.TrimSpace(q[2:]))
	case q == "!!":
		return "A0\n\nC\n" // persistent-connection handshake; accepted, unused
	}
	return "F unrecognized command\n"
}

// queryRoutes answers "!r<prefix>[,<option>]", the irrd route-search
// command, entirely from the database's radix LPM index:
//
//	!r192.0.2.0/24      exact-match route objects
//	!r192.0.2.0/24,o    origin ASNs of exact-match routes
//	!r192.0.2.0/24,L    all less-specific (covering) routes, including exact
//	!r192.0.2.0/24,M    all more-specific (covered) routes, including exact
func (s *Server) queryRoutes(db *irr.Database, arg string) string {
	opt := ""
	if pfxText, o, found := strings.Cut(arg, ","); found {
		arg, opt = pfxText, strings.TrimSpace(o)
	}
	p, err := prefix.Parse(strings.TrimSpace(arg))
	if err != nil {
		return "F bad prefix\n"
	}
	var pos []irr.PrefixOrigins
	switch opt {
	case "":
		if origins := db.OriginsOf(p); len(origins) > 0 {
			pos = []irr.PrefixOrigins{{Prefix: p, Origins: origins}}
		}
	case "o":
		origins := append([]ir.ASN(nil), db.OriginsOf(p)...)
		if len(origins) == 0 {
			return "D\n"
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		parts := make([]string, len(origins))
		for i, o := range origins {
			parts[i] = o.String()
		}
		return frameIRRd(strings.Join(parts, " "))
	case "L":
		pos = db.RoutesCovering(p)
	case "M":
		pos = db.RoutesCoveredBy(p)
	default:
		return "F bad route-search option\n"
	}
	if len(pos) == 0 {
		return "D\n"
	}
	var b strings.Builder
	writePrefixOrigins(&b, pos)
	return frameIRRd(strings.TrimSuffix(b.String(), "\n"))
}

// querySerials answers "!j": the current mirror serial per registry,
// one "<SOURCE>:Y:<serial>" line each (irrd's journal-status shape).
// "!j" and "!j-*" report every registry; "!jRIPE,RADB" filters. A
// mirror that has applied no journal (NewServer's) has no data.
func (s *Server) querySerials(arg string) string {
	serials := s.Mirror.Serials()
	if len(serials) == 0 {
		return "D\n"
	}
	var names []string
	if arg == "" || arg == "-*" {
		for reg := range serials {
			names = append(names, reg)
		}
	} else {
		for _, reg := range strings.Split(arg, ",") {
			reg = strings.ToUpper(strings.TrimSpace(reg))
			if _, ok := serials[reg]; ok {
				names = append(names, reg)
			}
		}
	}
	if len(names) == 0 {
		return "D\n"
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, reg := range names {
		lines[i] = fmt.Sprintf("%s:Y:%d", reg, serials[reg])
	}
	return frameIRRd(strings.Join(lines, "\n"))
}

// frameIRRd wraps data in the irrd success framing.
func frameIRRd(data string) string {
	return fmt.Sprintf("A%d\n%s\nC\n", len(data), data)
}
