// Package whois implements a minimal IRR query server and client in
// the style of the classic whois interfaces the paper's Appendix A
// demonstrates (`whois -h whois.radb.net 8.8.8.8`): one query line per
// TCP connection, an RPSL text response, then close. It serves objects
// from the merged database, supporting lookups by AS number, set name,
// prefix, and irrd-style inverse origin queries ("-i origin AS15169").
package whois

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/render"
	"rpslyzer/internal/trace"
)

// Server serves whois queries from an IRR database.
//
// Concurrency contract: the database is the Mirror's current snapshot.
// The NRTM mirror loop replaces it after every applied journal; every
// query loads it exactly once and answers entirely from that immutable
// snapshot, so in-flight queries finish on the database they started
// with while new queries see the new one; there is no torn state and no
// locking on the query path. Mirror, Metrics, Logger, and Tracer must
// be set before Listen; everything else is safe from any goroutine.
type Server struct {
	// Mirror holds the database queries are answered from and the
	// serials !j reports. NewServer sets a mirror that never applies a
	// journal; a mirroring daemon replaces it with its live one (set
	// before Listen).
	Mirror *nrtm.Mirror
	// Metrics, when non-nil, records connection and query counters (set
	// before Listen).
	Metrics *Metrics
	// Logger receives accept-loop diagnostics; nil means slog.Default.
	Logger *slog.Logger
	// Tracer, when non-nil, records sampled per-query spans under the
	// "whois" stage (set before Listen).
	Tracer *trace.Tracer

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  sync.WaitGroup
}

// NewServer creates a server over the fixed database db.
func NewServer(db *irr.Database) *Server {
	return &Server{Mirror: nrtm.NewMirrorDB(db, nil, nil)}
}

// Listen starts listening on addr (e.g. "127.0.0.1:0") and serves
// connections until Close. It returns once the listener is ready.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.conns.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// acceptLoop serves the listener until Close. Temporary accept errors
// (e.g. EMFILE under fd pressure) are retried with exponential backoff
// instead of silently killing the server; only a permanent error or
// Close stops the loop.
func (s *Server) acceptLoop(ln net.Listener) {
	const (
		minBackoff = 5 * time.Millisecond
		maxBackoff = time.Second
	)
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && (ne.Timeout() || ne.Temporary()) {
				if backoff == 0 {
					backoff = minBackoff
				} else if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				s.Metrics.acceptRetry()
				s.logger().Warn("temporary accept error; retrying",
					"err", err, "backoff", backoff)
				time.Sleep(backoff)
				continue
			}
			s.logger().Error("accept failed; whois server stopping", "err", err)
			return
		}
		backoff = 0
		s.Metrics.connAccepted()
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			defer s.Metrics.connDone()
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn io.ReadWriter) {
	r := bufio.NewReader(io.LimitReader(conn, 4096))
	line, err := r.ReadString('\n')
	if err != nil && line == "" {
		// Read timeout or empty request: nothing to answer.
		s.Metrics.connDropped()
		return
	}
	q := strings.TrimSpace(line)
	sp := s.Metrics.querySpan()
	tsp := s.Tracer.Start("whois", "query")
	resp := s.Query(q)
	tsp.Set("query", q).SetInt("bytes", int64(len(resp))).End()
	sp.End()
	s.Metrics.observeQuery(len(resp))
	if _, err := io.WriteString(conn, resp); err != nil {
		s.Metrics.connDropped()
	}
}

// Query answers one whois query string. Supported forms:
//
//	AS64500              the aut-num object
//	AS-EXAMPLE           a set object (as-set/route-set/...)
//	192.0.2.1            route objects covering the address
//	192.0.2.0/24         route objects for the prefix
//	-i origin AS64500    route objects originated by the AS
//
// The irrd short commands used by tools like bgpq4 are also supported:
//
//	!gAS64500            IPv4 prefixes originated by the AS
//	!6AS64500            IPv6 prefixes originated by the AS
//	!iAS-EXAMPLE         direct members of a set
//	!iAS-EXAMPLE,1       recursively flattened members
//	!r192.0.2.0/24       route search (,o ,L ,M options; see queryRoutes)
//	!j                   current mirror serial per registry
func (s *Server) Query(q string) string {
	// Load the snapshot once: the whole query is answered from it even
	// if the mirror applies a journal mid-evaluation.
	db := s.Mirror.DB()
	q = strings.TrimSpace(q)
	if q == "" {
		return "% error: empty query\n"
	}
	if strings.HasPrefix(q, "!") {
		return s.queryIRRd(db, q)
	}
	fields := strings.Fields(q)
	if len(fields) >= 3 && fields[0] == "-i" && strings.EqualFold(fields[1], "origin") {
		return s.queryOrigin(db, fields[2])
	}
	upper := strings.ToUpper(fields[0])
	switch {
	case ir.IsASN(upper):
		return s.queryAutNum(db, upper)
	case strings.Contains(upper, "/"):
		return s.queryPrefix(db, upper)
	case strings.Contains(upper, "-"):
		return s.querySet(db, upper)
	default:
		// A bare IP address: widen to covering route objects.
		return s.queryAddress(db, upper)
	}
}

func (s *Server) queryAutNum(db *irr.Database, name string) string {
	asn, err := ir.ParseASN(name)
	if err != nil {
		return "% error: bad AS number\n"
	}
	an, ok := db.AutNum(asn)
	if !ok {
		return fmt.Sprintf("%% no entries found for %s\n", name)
	}
	return RenderAutNum(an)
}

func (s *Server) querySet(db *irr.Database, name string) string {
	x := db.IR
	if set, ok := x.AsSets[name]; ok {
		return RenderAsSet(set)
	}
	if set, ok := x.RouteSets[name]; ok {
		return RenderRouteSet(set)
	}
	if set, ok := x.PeeringSets[name]; ok {
		var b strings.Builder
		render.PeeringSet(&b, set)
		return b.String()
	}
	if set, ok := x.FilterSets[name]; ok {
		return fmt.Sprintf("filter-set:     %s\nfilter:         %s\nsource:         %s\n",
			set.Name, set.Filter.String(), set.Source)
	}
	if set, ok := x.RtrSets[name]; ok {
		var b strings.Builder
		render.RtrSet(&b, set)
		return b.String()
	}
	return fmt.Sprintf("%% no entries found for %s\n", name)
}

func (s *Server) queryOrigin(db *irr.Database, asText string) string {
	asn, err := ir.ParseASN(asText)
	if err != nil {
		return "% error: bad AS number\n"
	}
	tbl, ok := db.RouteTable(asn)
	if !ok {
		return fmt.Sprintf("%% no entries found for origin %s\n", asText)
	}
	var b strings.Builder
	for _, e := range tbl.Entries() {
		writeRoute(&b, e.Prefix, asn)
	}
	return b.String()
}

func (s *Server) queryPrefix(db *irr.Database, text string) string {
	p, err := prefix.Parse(text)
	if err != nil {
		return "% error: bad prefix\n"
	}
	origins := db.OriginsOf(p)
	if len(origins) == 0 {
		return fmt.Sprintf("%% no entries found for %s\n", text)
	}
	sorted := append([]ir.ASN(nil), origins...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var b strings.Builder
	for _, o := range sorted {
		writeRoute(&b, p, o)
	}
	return b.String()
}

func (s *Server) queryAddress(db *irr.Database, text string) string {
	addr, err := netip.ParseAddr(text)
	if err != nil || addr.Zone() != "" {
		return "% error: unrecognized query\n"
	}
	// The radix index answers containment in one root-to-leaf descent,
	// shortest (least specific) covering prefix first.
	covering := db.RoutesCovering(prefix.FromNetip(netip.PrefixFrom(addr, addr.BitLen())))
	if len(covering) == 0 {
		return fmt.Sprintf("%% no entries found for %s\n", text)
	}
	var b strings.Builder
	writePrefixOrigins(&b, covering)
	return b.String()
}

// writePrefixOrigins renders radix-index results as route objects,
// origins sorted per prefix for deterministic output.
func writePrefixOrigins(b *strings.Builder, pos []irr.PrefixOrigins) {
	for _, po := range pos {
		origins := append([]ir.ASN(nil), po.Origins...)
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		for _, o := range origins {
			writeRoute(b, po.Prefix, o)
		}
	}
}

func writeRoute(b *strings.Builder, p prefix.Prefix, origin ir.ASN) {
	class := "route"
	if p.IsIPv6() {
		class = "route6"
	}
	fmt.Fprintf(b, "%s:          %s\norigin:         %s\n\n", class, p, origin)
}

// RenderAutNum re-emits an aut-num object as RPSL text from the IR.
func RenderAutNum(an *ir.AutNum) string {
	var b strings.Builder
	fmt.Fprintf(&b, "aut-num:        %s\n", an.ASN)
	if an.Name != "" {
		fmt.Fprintf(&b, "as-name:        %s\n", an.Name)
	}
	for _, r := range an.Imports {
		attr := "import"
		if r.MP {
			attr = "mp-import"
		}
		fmt.Fprintf(&b, "%s:%s%s\n", attr, pad(attr), r.Raw)
	}
	for _, r := range an.Exports {
		attr := "export"
		if r.MP {
			attr = "mp-export"
		}
		fmt.Fprintf(&b, "%s:%s%s\n", attr, pad(attr), r.Raw)
	}
	if an.Source != "" {
		fmt.Fprintf(&b, "source:         %s\n", an.Source)
	}
	return b.String()
}

// RenderAsSet re-emits an as-set object.
func RenderAsSet(set *ir.AsSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "as-set:         %s\n", set.Name)
	var members []string
	for _, a := range set.MemberASNs {
		members = append(members, a.String())
	}
	members = append(members, set.MemberSets...)
	if len(members) > 0 {
		fmt.Fprintf(&b, "members:        %s\n", strings.Join(members, ", "))
	}
	if set.Source != "" {
		fmt.Fprintf(&b, "source:         %s\n", set.Source)
	}
	return b.String()
}

// RenderRouteSet re-emits a route-set object.
func RenderRouteSet(set *ir.RouteSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "route-set:      %s\n", set.Name)
	var members []string
	for _, m := range set.Members {
		switch m.Kind {
		case ir.RSMemberPrefix:
			members = append(members, m.Prefix.String())
		case ir.RSMemberSet:
			members = append(members, m.Name+m.Op.String())
		case ir.RSMemberASN:
			members = append(members, m.ASN.String()+m.Op.String())
		}
	}
	if len(members) > 0 {
		fmt.Fprintf(&b, "members:        %s\n", strings.Join(members, ", "))
	}
	if set.Source != "" {
		fmt.Fprintf(&b, "source:         %s\n", set.Source)
	}
	return b.String()
}

func pad(attr string) string {
	n := 16 - len(attr) - 1
	if n < 1 {
		n = 1
	}
	return strings.Repeat(" ", n)
}

// QueryServer connects to a whois server, sends one query, and returns
// the full response (the client side of the protocol).
func QueryServer(addr, query string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\r\n", query); err != nil {
		return "", err
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
