// Per-site supervision: each site's scanner -> queue -> drainer pipeline
// runs as one restartable unit under internal/supervise. A panic or
// ingest error tears down only that site's incarnation; the supervisor
// backs off and restarts it from the site's committed segments, and a
// site that exhausts its restart budget is quarantined — its engine
// keeps serving the last-good answers and its committed entry keeps
// riding along in every checkpoint, while the other sites ingest on.
// The paper's operational lesson, applied to the collector itself: the
// monitoring plane must degrade per-fault-domain, not fleet-wide.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/statestore"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/syslog"
)

var _ serve.Source = (*siteDaemon)(nil)

// health adapts the site's supervision ladder for the HTTP layer. Before
// the supervisor has spawned the unit the site reports running — the
// startup window is not a fault.
func (s *siteDaemon) health() serve.SiteHealth {
	u := s.unit.Load()
	if u == nil {
		return serve.SiteHealth{State: serve.SiteRunning}
	}
	h := u.Health()
	return serve.SiteHealth{
		State:          h.State,
		Restarts:       h.Restarts,
		LastError:      h.LastError,
		RetryInSeconds: h.RetryInSeconds,
	}
}

// buildPipeline constructs one engine+queue incarnation primed with a
// restored snapshot. Every shed record is charged to the engine's
// degraded accounting: offered == ingested + shed, and every analysis
// that undercounts says so.
func (d *daemon) buildPipeline(snap statestore.Snapshot) (*stream.Sharded, *overload.Queue[mce.CERecord]) {
	eng := stream.NewSharded(stream.ShardedConfig{
		Partitions: d.cfg.partitions,
		Engine: stream.Config{
			Cluster:     core.ClusterConfig{Parallelism: d.cfg.workers},
			Window:      d.cfg.window,
			DIMMs:       d.cfg.dimms,
			Parallelism: d.cfg.workers,
		},
	})
	q := overload.NewQueue[mce.CERecord](overload.Config{
		Capacity: d.cfg.queueDepth,
		High:     d.cfg.queueHigh,
		Low:      d.cfg.queueLow,
		Policy:   d.cfg.shedPolicy,
		OnShed:   func(n int) { eng.NoteShed(n) },
	})
	eng.IngestBatch(snap.Records)
	if snap.Shed > 0 {
		eng.NoteShed(int(snap.Shed))
	}
	return eng, q
}

// rebuild replaces the site's pipeline with a fresh incarnation restored
// from snap, publishing the engine and queue atomically for the HTTP
// readers.
func (d *daemon) rebuild(s *siteDaemon, snap statestore.Snapshot) (*stream.Sharded, *overload.Queue[mce.CERecord]) {
	eng, q := d.buildPipeline(snap)
	s.eng.Store(eng)
	s.q.Store(q)
	return eng, q
}

// runSite is one supervised incarnation of a site's pipeline. The first
// run adopts the startup-built engine and queue (restored from the state
// ladder); every restart rebuilds both from the site's committed
// segments, read back from disk, so a crash costs at most the records
// scanned since the last commit — and those are re-scanned from the log,
// because the committed checkpoint is the resume point. The restore moves
// the site's epoch, so captures the failed incarnation left in flight
// are dropped instead of committed. Opening the log
// happens inside the unit: a missing or unreadable log is a restartable
// fault (the file may appear later), not a fatal one.
func (d *daemon) runSite(ctx context.Context, s *siteDaemon) error {
	eng, q, cp := s.engine(), s.queue(), s.resumeCP
	if !s.primed.CompareAndSwap(true, false) {
		snap := statestore.Snapshot{ID: s.id}
		if d.store != nil {
			var err error
			if snap, err = d.store.Restore(s.id); err != nil {
				// The segments were verified when committed; losing one now
				// is disk damage, and a cold restart beats no restart.
				d.log.Warn("committed state unreadable; rebuilding from scratch", "site", s.id, "err", err)
				snap = statestore.Snapshot{ID: s.id}
				if err := d.store.Reset(s.id); err != nil {
					return err
				}
			}
		}
		eng, q = d.rebuild(s, snap)
		cp = snap.Checkpoint
		d.log.Info("site pipeline rebuilt", "site", s.id, "records", len(snap.Records), "offset", cp.Offset)
	}

	f, err := os.Open(s.logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < cp.Offset {
		// The log shrank beneath the checkpoint (rotation/truncation while
		// down): the saved state describes bytes that no longer exist.
		d.log.Warn("log shorter than checkpoint; starting fresh",
			"site", s.id, "size", fi.Size(), "offset", cp.Offset)
		// A fresh log means the ledger's history is no longer tied to the
		// records that produced it; drop it with the engine state.
		s.alarms.replace(nil)
		eng, q = d.rebuild(s, statestore.Snapshot{ID: s.id})
		cp = syslog.Checkpoint{}
		if d.store != nil {
			if err := d.store.Reset(s.id); err != nil {
				return err
			}
		}
	}
	if _, err := f.Seek(cp.Offset, io.SeekStart); err != nil {
		return err
	}

	// The drainer is part of the unit: a panic in the engine's ingest
	// path must fail the whole incarnation, not strand the tail behind a
	// queue nobody drains.
	tailCtx, cancelTail := context.WithCancel(ctx)
	defer cancelTail()
	drainErr := make(chan error, 1)
	go func() {
		derr := d.drainCaptured(q, eng)
		drainErr <- derr
		if derr != nil {
			cancelTail()
		}
	}()

	fcp, ok, ingErr := d.ingest(tailCtx, s, q, f, cp)
	q.Close()
	derr := <-drainErr
	switch {
	case ingErr != nil:
		return fmt.Errorf("site %s: ingest: %w", s.id, ingErr)
	case derr != nil:
		return fmt.Errorf("site %s: drain: %w", s.id, derr)
	}
	// Clean stop (shutdown): the queue has fully drained into the engine,
	// so capture the final consistent delta for the last state write —
	// unless the resume offset is untranslatable (stopped mid-rotation),
	// in which case the committed entry remains the honest resume point.
	if d.store != nil && ok {
		final := d.capture(s, fcp)
		s.final.Store(&final)
	}
	return nil
}

// drainCaptured runs the drain loop with panic capture, so an engine
// bug surfaces as a supervised unit failure.
func (d *daemon) drainCaptured(q *overload.Queue[mce.CERecord], eng *stream.Sharded) (err error) {
	defer parallel.Recover(&err)
	d.drain(q, eng)
	return nil
}

// superviseSites spawns every site's pipeline under one supervisor and
// publishes each unit for the HTTP health hooks.
func (d *daemon) superviseSites(ctx context.Context) *supervise.Supervisor {
	sup := supervise.New(supervise.Config{
		BackoffBase: d.cfg.restartBackoff,
		BackoffMax:  d.cfg.restartBackoffMax,
		Budget:      d.cfg.restartBudget,
		ResetAfter:  d.cfg.restartReset,
		OnTransition: func(tr supervise.Transition) {
			switch tr.To {
			case supervise.StateBackoff:
				d.log.Warn("site pipeline failed; restarting", "site", tr.Unit, "err", tr.Err,
					"delay", tr.Delay, "restarts", tr.Restarts)
			case supervise.StateQuarantined:
				d.log.Error("site pipeline quarantined", "site", tr.Unit, "err", tr.Err,
					"restarts", tr.Restarts)
			case supervise.StateRunning:
				if tr.Restarts > 0 {
					d.log.Info("site pipeline restarted", "site", tr.Unit, "restarts", tr.Restarts)
				}
			}
		},
	})
	for _, s := range d.sites {
		s := s
		u := sup.Go(ctx, s.id, func(uctx context.Context) error { return d.runSite(uctx, s) })
		s.unit.Store(u)
	}
	return sup
}
