package asregex

import "rpslyzer/internal/ir"

// MatchProduct implements the literal construction described in the
// paper's Appendix B: replace each AS token with a symbol, convert each
// AS number in the path to the set of symbols it can match, take the
// Cartesian product of those sets to generate symbol strings, and
// accept if any symbol string matches the symbolic regex.
//
// The construction is exponential in path length, so it is capped at
// maxStrings generated strings (beyond which it falls back to the NFA
// matcher). It exists as the reference the production NFA is tested
// against.
func (re *Regex) MatchProduct(path []ir.ASN, peerAS ir.ASN, res Resolver, maxStrings int) bool {
	if res == nil {
		res = EmptyResolver
	}
	// Collect the distinct terms ("symbols") of the program.
	var terms []*ir.PathTerm
	index := make(map[*ir.PathTerm]int)
	for _, in := range re.prog {
		if in.term != nil {
			if _, ok := index[in.term]; !ok {
				index[in.term] = len(terms)
				terms = append(terms, in.term)
			}
		}
	}
	// Per-hop symbol sets.
	symbolSets := make([][]int, len(path))
	total := 1
	for i, asn := range path {
		for si, t := range terms {
			if termMatches(t, asn, peerAS, res) {
				symbolSets[i] = append(symbolSets[i], si)
			}
		}
		if len(symbolSets[i]) == 0 {
			// Some hop matches no symbol at all: with the implicit .*
			// wildcard symbol always present this cannot happen, but an
			// anchored regex without wildcards can reject here directly.
			return false
		}
		if total > 0 {
			total *= len(symbolSets[i])
			if total > maxStrings || total < 0 {
				total = -1 // overflow marker
			}
		}
	}
	if total < 0 {
		return re.Match(path, peerAS, res)
	}
	// Enumerate symbol strings and run the symbolic VM on each.
	symbols := make([]int, len(path))
	var enumerate func(i int) bool
	enumerate = func(i int) bool {
		if i == len(path) {
			return re.matchSymbolic(symbols, index)
		}
		for _, s := range symbolSets[i] {
			symbols[i] = s
			if enumerate(i + 1) {
				return true
			}
		}
		return false
	}
	return enumerate(0)
}

// matchSymbolic runs the VM over a symbol string: a term instruction
// matches a position iff the position's symbol is exactly that term.
// The ~ same-register degenerates to symbol equality, which is a sound
// over-approximation used only by this reference path; the differential
// tests restrict ~ comparisons to the NFA matcher.
func (re *Regex) matchSymbolic(symbols []int, index map[*ir.PathTerm]int) bool {
	type sthread struct {
		pc   int
		same int // last symbol for ~; -1 unset
	}
	seen := make(map[sthread]bool)
	var clist, nlist []sthread
	addThread := func(list *[]sthread, t sthread) bool {
		stack := []sthread{t}
		matched := false
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			in := re.prog[cur.pc]
			switch in.op {
			case opSplit:
				stack = append(stack, sthread{in.x, cur.same}, sthread{in.y, cur.same})
			case opJump:
				stack = append(stack, sthread{in.x, cur.same})
			case opSameStart, opSameEnd:
				stack = append(stack, sthread{cur.pc + 1, -1})
			case opMatch:
				matched = true
			default:
				*list = append(*list, cur)
			}
		}
		return matched
	}
	clear(seen)
	matched := addThread(&clist, sthread{pc: 0, same: -1})
	for i, sym := range symbols {
		nlist = nlist[:0]
		clear(seen)
		matched = false
		for _, t := range clist {
			in := re.prog[t.pc]
			switch in.op {
			case opTerm:
				if index[in.term] == sym {
					if addThread(&nlist, sthread{pc: t.pc + 1, same: -1}) {
						matched = true
					}
				}
			case opTermSame:
				if index[in.term] != sym {
					continue
				}
				if t.same >= 0 && t.same != sym {
					continue
				}
				if addThread(&nlist, sthread{pc: t.pc + 1, same: sym}) {
					matched = true
				}
			}
		}
		clist, nlist = nlist, clist
		if len(clist) == 0 {
			return matched && i == len(symbols)-1
		}
	}
	return matched
}
