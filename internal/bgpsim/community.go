package bgpsim

import (
	"fmt"
	"strconv"
	"strings"
)

// Community is a classic BGP community attribute value (RFC 1997),
// packed high:low.
type Community uint32

// NewCommunity builds a community from its halves.
func NewCommunity(high, low uint16) Community {
	return Community(uint32(high)<<16 | uint32(low))
}

// High returns the administrator half.
func (c Community) High() uint16 { return uint16(c >> 16) }

// Low returns the value half.
func (c Community) Low() uint16 { return uint16(c) }

// String renders "high:low".
func (c Community) String() string {
	return strconv.Itoa(int(c.High())) + ":" + strconv.Itoa(int(c.Low()))
}

// BlackholeCommunity is the standardized 65535:666 BLACKHOLE community
// (RFC 7999), used in the paper's AS199284 example.
var BlackholeCommunity = NewCommunity(65535, 666)

// ParseCommunity parses "high:low" or the well-known names used in
// RPSL (no-export, no-advertise).
func ParseCommunity(s string) (Community, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "no-export":
		return NewCommunity(65535, 65281), nil
	case "no-advertise":
		return NewCommunity(65535, 65282), nil
	case "blackhole":
		return BlackholeCommunity, nil
	}
	hi, lo, ok := strings.Cut(s, ":")
	if !ok {
		return 0, fmt.Errorf("bgpsim: bad community %q", s)
	}
	h, err1 := strconv.ParseUint(strings.TrimSpace(hi), 10, 16)
	l, err2 := strconv.ParseUint(strings.TrimSpace(lo), 10, 16)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bgpsim: bad community %q", s)
	}
	return NewCommunity(uint16(h), uint16(l)), nil
}
