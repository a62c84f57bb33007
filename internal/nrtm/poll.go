package nrtm

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/trace"
)

// PollConfig drives Poll, the mirror loop behind `whoisd -mirror` and
// `reportd -mirror`; daemon.Process.Mirror is its one owner.
type PollConfig struct {
	// JournalDir is watched for *.nrtm journal files.
	JournalDir string
	// Interval is the directory poll period.
	Interval time.Duration
	// Logger receives mirror diagnostics; nil means slog.Default.
	Logger *slog.Logger
	// Reload produces a fresh full snapshot for resync after a serial
	// gap or corrupt journal (core.LoadDumpDir over the dump directory).
	Reload func() (*ir.IR, error)
	// OnApply, when non-nil, is called with the mirror's new database
	// after every applied journal and after every resync — the one
	// hot-swap hook. keys are the dependency keys of the objects the
	// journal touched; after a resync they are nil — "unknown delta,
	// redo everything". The span, when non-nil, is a child of the
	// enclosing journal-apply or resync trace for downstream work
	// (verify, store build, swap) to hang its spans off.
	OnApply func(db *irr.Database, keys []depgraph.Key, sp *trace.Span)
	// Tracer, when non-nil, traces each journal apply and resync under
	// the "mirror" stage, spans named by package daemon's rule.
	Tracer *trace.Tracer
}

// onApply runs the hook under an "onapply" child span of root.
func (c *PollConfig) onApply(db *irr.Database, keys []depgraph.Key, root *trace.Span) {
	if c.OnApply == nil {
		return
	}
	sp := root.Child("onapply")
	sp.SetInt("keys", int64(len(keys)))
	c.OnApply(db, keys, sp)
	sp.End()
}

// Poll watches the journal directory and applies new journals in
// lexical order (irrgen names them <step>.<registry>.nrtm, so that is
// serial order), invoking OnApply after each applied journal. A serial
// gap or corrupt journal triggers a full resync via Reload followed by
// a replay of every journal on disk. Poll returns when stop closes.
func Poll(mir *Mirror, cfg PollConfig, stop <-chan struct{}) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	applied := make(map[string]bool)
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		paths, err := JournalFiles(cfg.JournalDir)
		if err != nil {
			cfg.Logger.Warn("mirror: journal dir unreadable", "dir", cfg.JournalDir, "err", err)
			continue
		}
		pending := 0
		for _, path := range paths {
			if !applied[path] {
				pending++
			}
		}
		mir.metrics.pending(pending)
		for _, path := range paths {
			if applied[path] {
				continue
			}
			if err := applyOne(mir, &cfg, path); err != nil {
				cfg.Logger.Warn("mirror: apply failed; full resync", "journal", filepath.Base(path), "err", err)
				if err := resync(mir, &cfg, applied); err != nil {
					cfg.Logger.Error("mirror: resync failed", "err", err)
				}
				break
			}
			applied[path] = true
		}
	}
}

// JournalFiles lists the *.nrtm files of dir, sorted: lexical order is
// replay order.
func JournalFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".nrtm") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths, nil
}

func applyOne(mir *Mirror, cfg *PollConfig, path string) error {
	root := cfg.Tracer.Start("mirror", "journal-apply")
	root.Set("journal", filepath.Base(path))
	t0 := time.Now()

	read := root.Child("nrtm.read")
	j, err := ReadJournalFile(path)
	read.End()
	if err != nil {
		root.Set("error", err.Error()).End()
		return err
	}
	root.Set("registry", j.Registry).SetInt("ops", int64(len(j.Ops)))

	apply := root.Child("nrtm.apply")
	keys, err := mir.ApplyAllKeys([]*Journal{j})
	apply.End()
	if err != nil {
		root.Set("error", err.Error()).End()
		return err
	}
	cfg.onApply(mir.DB(), keys, root)
	mir.metrics.swapDone(time.Now().Unix(), time.Since(t0).Seconds())
	root.End()
	cfg.Logger.Info("mirror: applied journal",
		"registry", j.Registry, "serials", fmt.Sprintf("%d-%d", j.First, j.Last), "ops", len(j.Ops))
	return nil
}

// resync reloads the full snapshot, resets the mirror, and replays
// every journal currently on disk from serial 1.
func resync(mir *Mirror, cfg *PollConfig, applied map[string]bool) error {
	if cfg.Reload == nil {
		return fmt.Errorf("nrtm: resync needed but no Reload configured")
	}
	root := cfg.Tracer.Start("mirror", "resync")
	reload := root.Child("core.load_dumps")
	x, err := cfg.Reload()
	reload.End()
	if err != nil {
		root.Set("error", err.Error()).End()
		return err
	}
	t0 := time.Now()
	index := root.Child("irr.index")
	mir.Resync(x, nil)
	index.End()
	cfg.onApply(mir.DB(), nil, root)
	mir.metrics.swapDone(time.Now().Unix(), time.Since(t0).Seconds())
	root.End()
	clear(applied)
	paths, err := JournalFiles(cfg.JournalDir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, path := range paths {
		// Mark every journal handled whether or not it lands: ones
		// behind the fresh dumps report gaps by design, and retrying
		// them next tick would force a resync per poll forever. A
		// journal skipped here that becomes applicable later (its
		// predecessor arrives out of order) is recovered by the next
		// resync, which clears the map and replays the directory.
		applied[path] = true
		if err := applyOne(mir, cfg, path); err != nil {
			var gap *SerialGapError
			if !errors.As(err, &gap) && firstErr == nil {
				firstErr = err
			}
		}
	}
	cfg.Logger.Info("mirror: resynced", "resyncs", mir.Resyncs())
	return firstErr
}
