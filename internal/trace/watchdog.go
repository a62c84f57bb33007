package trace

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Health is the watchdog's verdict on the serving chain.
type Health int

const (
	// Healthy means every SLO the watchdog monitors is within bounds.
	Healthy Health = iota
	// Degraded means at least one SLO (staleness, error rate) is
	// breached; /healthz should fail so load balancers drain traffic.
	Degraded
)

// String implements fmt.Stringer.
func (h Health) String() string {
	if h == Degraded {
		return "degraded"
	}
	return "healthy"
}

// The error rate is judged over errorWindow, and only once the window
// holds minWindowRequests, so a single early 500 cannot degrade an idle
// server.
const (
	errorWindow       = 30 * time.Second
	minWindowRequests = 20
)

// WatchdogConfig arms a Watchdog's checks; a zero value disables one.
type WatchdogConfig struct {
	// MaxStaleness degrades health when the time since the last
	// RecordRefresh exceeds it. 0 disables the staleness check.
	MaxStaleness time.Duration
	// MaxErrorRate degrades health when the fraction of 5xx responses
	// over the last errorWindow exceeds it (0 < rate <= 1). 0 disables.
	MaxErrorRate float64
}

// Watchdog tracks data freshness and request error rate and folds them
// into a single health verdict for /healthz. All methods are safe for
// concurrent use and inert on a nil receiver (always Healthy).
//
// The error rate uses two buckets rotated every errorWindow: the current
// bucket accumulates, the previous bucket is included in the judged
// total so the rate never evaluates over an almost-empty window right
// after rotation.
type Watchdog struct {
	cfg         WatchdogConfig
	lastRefresh atomic.Int64 // unix nanos of the last RecordRefresh; 0 = never

	window  atomic.Int64 // window number of the current bucket
	curReq  atomic.Uint64
	curErr  atomic.Uint64
	prevReq atomic.Uint64
	prevErr atomic.Uint64

	nowFn func() time.Time // test hook
}

// NewWatchdog creates a Watchdog.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{cfg: cfg, nowFn: time.Now}
}

func (w *Watchdog) now() time.Time { return w.nowFn() }

// RecordRefresh marks the served data as fresh as of now. Call it on
// every successful store swap / DB hot-swap.
func (w *Watchdog) RecordRefresh() {
	if w == nil {
		return
	}
	w.lastRefresh.Store(w.now().UnixNano())
}

// rotate moves to the window containing now, shifting current counts to
// previous (or zeroing both when more than one window elapsed). Benign
// races only lose a handful of counts at the boundary.
func (w *Watchdog) rotate(now time.Time) {
	wn := now.UnixNano() / int64(errorWindow)
	old := w.window.Load()
	if wn == old {
		return
	}
	if !w.window.CompareAndSwap(old, wn) {
		return // another goroutine rotated
	}
	if wn == old+1 {
		w.prevReq.Store(w.curReq.Swap(0))
		w.prevErr.Store(w.curErr.Swap(0))
	} else {
		w.prevReq.Store(0)
		w.prevErr.Store(0)
		w.curReq.Store(0)
		w.curErr.Store(0)
	}
}

// RecordRequest feeds one served response into the error-rate window.
// Status codes >= 500 count as errors.
func (w *Watchdog) RecordRequest(status int) {
	if w == nil {
		return
	}
	w.rotate(w.now())
	w.curReq.Add(1)
	if status >= 500 {
		w.curErr.Add(1)
	}
}

// Staleness returns the time since the last RecordRefresh, or a very
// large duration when no refresh was ever recorded.
func (w *Watchdog) Staleness() time.Duration {
	if w == nil {
		return 0
	}
	last := w.lastRefresh.Load()
	if last == 0 {
		return time.Duration(1<<63 - 1)
	}
	return w.now().Sub(time.Unix(0, last))
}

// StatusReport is the watchdog's full verdict.
type StatusReport struct {
	Health    Health        `json:"-"`
	HealthStr string        `json:"health"`
	Reasons   []string      `json:"reasons,omitempty"`
	Staleness time.Duration `json:"-"`
	StaleSecs float64       `json:"staleness_seconds"`
	ErrorRate float64       `json:"error_rate"`
	Requests  uint64        `json:"window_requests"`
}

// Status evaluates the SLOs. A nil watchdog is always Healthy.
func (w *Watchdog) Status() StatusReport {
	if w == nil {
		return StatusReport{Health: Healthy, HealthStr: Healthy.String()}
	}
	now := w.now()
	w.rotate(now)
	rep := StatusReport{Health: Healthy}

	stale := w.Staleness()
	rep.Staleness = stale
	if last := w.lastRefresh.Load(); last != 0 {
		rep.StaleSecs = stale.Seconds()
	}
	if w.cfg.MaxStaleness > 0 && w.lastRefresh.Load() != 0 && stale > w.cfg.MaxStaleness {
		rep.Health = Degraded
		rep.Reasons = append(rep.Reasons,
			"staleness "+stale.Truncate(time.Millisecond).String()+" exceeds "+w.cfg.MaxStaleness.String())
	}

	req := w.curReq.Load() + w.prevReq.Load()
	errs := w.curErr.Load() + w.prevErr.Load()
	rep.Requests = req
	if req > 0 {
		rep.ErrorRate = float64(errs) / float64(req)
	}
	if w.cfg.MaxErrorRate > 0 && req >= minWindowRequests && rep.ErrorRate > w.cfg.MaxErrorRate {
		rep.Health = Degraded
		rep.Reasons = append(rep.Reasons,
			"error rate "+formatRate(rep.ErrorRate)+" exceeds "+formatRate(w.cfg.MaxErrorRate))
	}
	rep.HealthStr = rep.Health.String()
	return rep
}

func formatRate(r float64) string {
	return strconv.FormatFloat(r, 'f', 4, 64)
}
