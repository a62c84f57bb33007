// Package asregex implements matching of RPSL AS-path regular
// expressions against observed BGP AS-paths, following the symbolic
// approach in the paper's Appendix B: each AS token in the regex
// (a specific ASN, an ASN range, an as-set, PeerAS, or a wildcard)
// becomes a symbol, and each AS number in the observed path matches a
// set of symbols.
//
// The paper describes taking the Cartesian product of per-hop symbol
// sets and matching each resulting symbol string. That is exponential
// in path length, so the production matcher here is a Thompson NFA
// simulated with a Pike-style VM directly over symbol sets, which is
// equivalent but linear in path length times program size. The literal
// product construction is retained as MatchProduct, the reference the
// NFA is tested against (TestDifferentialNFAvsProduct).
//
// The engine also supports the constructs the paper leaves as future
// work — ASN ranges (AS1 - AS99) and same-pattern unary postfix
// operators (~*, ~+, ~{n,m}) — noting Appendix B's remark that both fit
// the symbolic approach by treating each as an AS token.
package asregex

import (
	"fmt"
	"sync"

	"rpslyzer/internal/ir"
)

// Resolver supplies as-set membership to the matcher. The verifier
// passes its merged-IRR index; tests pass small fakes.
type Resolver interface {
	// AsSetContains reports whether asn is a (recursively flattened)
	// member of the named as-set. recorded is false when the set does
	// not exist in the IRR, letting callers distinguish "no" from
	// "unknown".
	AsSetContains(name string, asn ir.ASN) (contains, recorded bool)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(name string, asn ir.ASN) (bool, bool)

// AsSetContains implements Resolver.
func (f ResolverFunc) AsSetContains(name string, asn ir.ASN) (bool, bool) { return f(name, asn) }

// EmptyResolver resolves no as-sets; every set is unrecorded.
var EmptyResolver Resolver = ResolverFunc(func(string, ir.ASN) (bool, bool) { return false, false })

// opcode enumerates VM instructions.
type opcode uint8

const (
	opTerm      opcode = iota // match one AS against term
	opTermSame                // like opTerm but bound to the thread's same-register
	opSameStart               // clear the same-register
	opSameEnd                 // clear the same-register
	opSplit                   // fork to x and y
	opJump                    // jump to x
	opMatch                   // accept
)

type inst struct {
	op   opcode
	x, y int
	term *ir.PathTerm
}

// Regex is a compiled AS-path regular expression.
type Regex struct {
	prog        []inst
	anchorBegin bool
	anchorEnd   bool
	src         *ir.PathRegex
	// hasSame marks programs using the ~ same-register; they need the
	// general (map-deduplicated) VM. Programs without it run on the
	// allocation-free fast path.
	hasSame bool
	// pool recycles VM state across Match calls.
	pool sync.Pool
}

// Compile translates a PathRegex AST into an executable program.
// Unanchored ends are compiled as implicit ".*" paddings, giving the
// usual substring-match semantics of path regexes.
func Compile(r *ir.PathRegex) (*Regex, error) {
	if r == nil {
		return nil, fmt.Errorf("asregex: nil regex")
	}
	c := &compiler{}
	if !r.AnchorBegin {
		c.emitDotStar()
	}
	if r.Root != nil {
		if err := c.node(r.Root); err != nil {
			return nil, err
		}
	}
	if !r.AnchorEnd {
		c.emitDotStar()
	}
	c.emit(inst{op: opMatch})
	re := &Regex{
		prog:        c.prog,
		anchorBegin: r.AnchorBegin,
		anchorEnd:   r.AnchorEnd,
		src:         r,
	}
	for _, in := range re.prog {
		if in.op == opTermSame || in.op == opSameStart || in.op == opSameEnd {
			re.hasSame = true
			break
		}
	}
	n := len(re.prog)
	re.pool.New = func() any {
		return &vmState{
			clist: make([]thread, 0, n),
			nlist: make([]thread, 0, n),
			stack: make([]thread, 0, n),
			stamp: make([]uint32, n),
			seen:  make(map[thread]bool, n),
		}
	}
	return re, nil
}

// vmState is the recyclable simulation state of one Match call.
type vmState struct {
	clist, nlist []thread
	stack        []thread
	// stamp implements allocation-free visited tracking for programs
	// without the same-register: stamp[pc] == gen means visited this
	// step.
	stamp []uint32
	gen   uint32
	// seen deduplicates (pc, same) thread states for ~ programs.
	seen map[thread]bool
}

// MustCompile is Compile that panics on error, for tests and tables.
func MustCompile(r *ir.PathRegex) *Regex {
	re, err := Compile(r)
	if err != nil {
		panic(err)
	}
	return re
}

// Source returns the AST the regex was compiled from.
func (re *Regex) Source() *ir.PathRegex { return re.src }

type compiler struct {
	prog []inst
}

func (c *compiler) emit(i inst) int {
	c.prog = append(c.prog, i)
	return len(c.prog) - 1
}

var wildcardTerm = &ir.PathTerm{Kind: ir.PathWildcard}

// emitDotStar appends a ".*" loop.
func (c *compiler) emitDotStar() {
	split := c.emit(inst{op: opSplit})
	c.emit(inst{op: opTerm, term: wildcardTerm})
	c.emit(inst{op: opJump, x: split})
	c.prog[split].x = split + 1
	c.prog[split].y = len(c.prog)
}

func (c *compiler) node(n *ir.PathNode) error {
	switch n.Kind {
	case ir.PathToken:
		if n.Term == nil {
			return fmt.Errorf("asregex: token node without term")
		}
		c.emit(inst{op: opTerm, term: n.Term})
		return nil
	case ir.PathConcat:
		for _, ch := range n.Children {
			if err := c.node(ch); err != nil {
				return err
			}
		}
		return nil
	case ir.PathAlt:
		return c.alt(n.Children)
	case ir.PathRepeat:
		if len(n.Children) != 1 {
			return fmt.Errorf("asregex: repeat with %d children", len(n.Children))
		}
		if n.Same {
			return c.sameRepeat(n)
		}
		return c.repeat(n.Children[0], n.Min, n.Max)
	}
	return fmt.Errorf("asregex: unknown node kind %v", n.Kind)
}

// alt compiles alternation over children.
func (c *compiler) alt(children []*ir.PathNode) error {
	if len(children) == 0 {
		return fmt.Errorf("asregex: empty alternation")
	}
	if len(children) == 1 {
		return c.node(children[0])
	}
	var jumps []int
	var lastSplit int = -1
	for i, ch := range children {
		if i < len(children)-1 {
			split := c.emit(inst{op: opSplit})
			c.prog[split].x = split + 1
			lastSplit = split
		}
		if err := c.node(ch); err != nil {
			return err
		}
		if i < len(children)-1 {
			jumps = append(jumps, c.emit(inst{op: opJump}))
			c.prog[lastSplit].y = len(c.prog)
		}
	}
	end := len(c.prog)
	for _, j := range jumps {
		c.prog[j].x = end
	}
	return nil
}

// repeat compiles child{min,max}; max == -1 means unbounded.
func (c *compiler) repeat(child *ir.PathNode, min, max int) error {
	if min < 0 || (max != -1 && max < min) {
		return fmt.Errorf("asregex: bad repeat bounds {%d,%d}", min, max)
	}
	if max != -1 && max > 64 {
		return fmt.Errorf("asregex: repeat bound %d too large", max)
	}
	for i := 0; i < min; i++ {
		if err := c.node(child); err != nil {
			return err
		}
	}
	if max == -1 {
		// star loop
		split := c.emit(inst{op: opSplit})
		c.prog[split].x = split + 1
		if err := c.node(child); err != nil {
			return err
		}
		c.emit(inst{op: opJump, x: split})
		c.prog[split].y = len(c.prog)
		return nil
	}
	// (max-min) optional copies
	var splits []int
	for i := 0; i < max-min; i++ {
		split := c.emit(inst{op: opSplit})
		c.prog[split].x = split + 1
		splits = append(splits, split)
		if err := c.node(child); err != nil {
			return err
		}
	}
	end := len(c.prog)
	for _, s := range splits {
		c.prog[s].y = end
	}
	return nil
}

// sameRepeat compiles child~{min,max}: all repetitions must match the
// same AS number. The VM threads carry a "same" register for this.
func (c *compiler) sameRepeat(n *ir.PathNode) error {
	child := n.Children[0]
	if child.Kind != ir.PathToken || child.Term == nil {
		return fmt.Errorf("asregex: ~ operator requires a single AS token")
	}
	min, max := n.Min, n.Max
	if min < 0 || (max != -1 && max < min) {
		return fmt.Errorf("asregex: bad same-repeat bounds {%d,%d}", min, max)
	}
	if max != -1 && max > 64 {
		return fmt.Errorf("asregex: same-repeat bound %d too large", max)
	}
	c.emit(inst{op: opSameStart})
	for i := 0; i < min; i++ {
		c.emit(inst{op: opTermSame, term: child.Term})
	}
	if max == -1 {
		split := c.emit(inst{op: opSplit})
		c.prog[split].x = split + 1
		c.emit(inst{op: opTermSame, term: child.Term})
		c.emit(inst{op: opJump, x: split})
		c.prog[split].y = len(c.prog)
	} else {
		var splits []int
		for i := 0; i < max-min; i++ {
			split := c.emit(inst{op: opSplit})
			c.prog[split].x = split + 1
			splits = append(splits, split)
			c.emit(inst{op: opTermSame, term: child.Term})
		}
		end := len(c.prog)
		for _, s := range splits {
			c.prog[s].y = end
		}
	}
	c.emit(inst{op: opSameEnd})
	return nil
}

// termMatches evaluates one AS token against one AS number.
func termMatches(t *ir.PathTerm, asn, peerAS ir.ASN, res Resolver) bool {
	switch t.Kind {
	case ir.PathASN:
		return t.ASN == asn
	case ir.PathASRange:
		return asn >= t.ASN && asn <= t.ASNHi
	case ir.PathSet:
		contains, _ := res.AsSetContains(t.Name, asn)
		return contains
	case ir.PathWildcard:
		return true
	case ir.PathPeerAS:
		return asn == peerAS
	case ir.PathClass:
		any := false
		for _, e := range t.Elems {
			if termMatches(e, asn, peerAS, res) {
				any = true
				break
			}
		}
		if t.Negated {
			return !any
		}
		return any
	}
	return false
}

// thread is a VM thread: program counter plus the same-register.
type thread struct {
	pc      int
	same    ir.ASN
	sameSet bool
}

// Match reports whether the path matches the regex. path[0] is the
// leftmost AS of the textual AS-path (the most recently traversed AS,
// i.e. the neighbor); the last element is the origin. peerAS resolves
// the PeerAS token.
//
// Because Compile inserts explicit ".*" paddings for unanchored ends,
// the VM uniformly requires the program to consume the entire path:
// opMatch counts only once all input is consumed. VM state is pooled;
// programs without the ~ same-register run allocation-free.
func (re *Regex) Match(path []ir.ASN, peerAS ir.ASN, res Resolver) bool {
	if res == nil {
		res = EmptyResolver
	}
	st := re.pool.Get().(*vmState)
	matched := re.run(st, path, peerAS, res)
	re.pool.Put(st)
	return matched
}

// beginStep resets per-step visited tracking.
func (re *Regex) beginStep(st *vmState) {
	if re.hasSame {
		clear(st.seen)
		return
	}
	st.gen++
	if st.gen == 0 { // wrapped: reset stamps
		for i := range st.stamp {
			st.stamp[i] = 0
		}
		st.gen = 1
	}
}

// visited marks t and reports whether it was already visited this step.
func (re *Regex) visited(st *vmState, t thread) bool {
	if re.hasSame {
		if st.seen[t] {
			return true
		}
		st.seen[t] = true
		return false
	}
	if st.stamp[t.pc] == st.gen {
		return true
	}
	st.stamp[t.pc] = st.gen
	return false
}

// addThread follows epsilon transitions from t, appending threads
// blocked on input to list. It reports whether opMatch was reached.
func (re *Regex) addThread(st *vmState, list *[]thread, t thread) bool {
	st.stack = append(st.stack[:0], t)
	matched := false
	for len(st.stack) > 0 {
		cur := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		if re.visited(st, cur) {
			continue
		}
		in := re.prog[cur.pc]
		switch in.op {
		case opSplit:
			st.stack = append(st.stack,
				thread{in.x, cur.same, cur.sameSet},
				thread{in.y, cur.same, cur.sameSet})
		case opJump:
			st.stack = append(st.stack, thread{in.x, cur.same, cur.sameSet})
		case opSameStart, opSameEnd:
			st.stack = append(st.stack, thread{cur.pc + 1, 0, false})
		case opMatch:
			matched = true
		default:
			*list = append(*list, cur)
		}
	}
	return matched
}

func (re *Regex) run(st *vmState, path []ir.ASN, peerAS ir.ASN, res Resolver) bool {
	st.clist = st.clist[:0]
	st.nlist = st.nlist[:0]
	re.beginStep(st)
	matched := re.addThread(st, &st.clist, thread{pc: 0})
	for i, asn := range path {
		st.nlist = st.nlist[:0]
		re.beginStep(st)
		matched = false
		for _, t := range st.clist {
			in := re.prog[t.pc]
			switch in.op {
			case opTerm:
				if termMatches(in.term, asn, peerAS, res) {
					if re.addThread(st, &st.nlist, thread{pc: t.pc + 1}) {
						matched = true
					}
				}
			case opTermSame:
				if !termMatches(in.term, asn, peerAS, res) {
					continue
				}
				if t.sameSet && t.same != asn {
					continue
				}
				if re.addThread(st, &st.nlist, thread{pc: t.pc + 1, same: asn, sameSet: true}) {
					matched = true
				}
			}
		}
		st.clist, st.nlist = st.nlist, st.clist
		if len(st.clist) == 0 {
			// No live threads. opMatch only counts when the entire path
			// has been consumed.
			return matched && i == len(path)-1
		}
	}
	return matched
}
