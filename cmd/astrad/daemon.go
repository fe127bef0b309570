package main

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/statestore"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/syslog"
)

// siteSpec names one tailed log: a site id for the /v1/sites URL space
// and the path of the syslog it feeds from.
type siteSpec struct {
	id   string
	path string
}

// daemonConfig is the parsed flag set.
type daemonConfig struct {
	logPath   string
	sites     []siteSpec
	statePath string
	listen    string

	dedupWindow   int
	reorderWindow time.Duration
	poll          time.Duration
	checkpointSec time.Duration

	dimms      int
	window     time.Duration
	workers    int
	partitions int

	// Admission queue between each scanner and its engine.
	queueDepth    int
	queueHigh     int
	queueLow      int
	shedPolicy    overload.Policy
	drainBatch    int
	drainInterval time.Duration

	// Checkpoint circuit breaker.
	cpFailures int
	cpCooldown time.Duration
	cpTimeout  time.Duration

	// Checkpoint generation ladder depth (state, state.1, ...).
	stateKeep int

	// Risk serving: alarm threshold for the first-alarm ledger and the
	// astrad_predict_atrisk gauge, and an optional trained-model
	// directory replacing the built-in rule ladder.
	riskThreshold float64
	modelPath     string

	// Per-site supervision.
	restartBackoff    time.Duration
	restartBackoffMax time.Duration
	restartBudget     int
	restartReset      time.Duration

	// HTTP server hardening.
	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	maxHeaderBytes    int
	maxConcurrent     int
	requestTimeout    time.Duration
}

// siteDaemon is one site's ingest pipeline: scanner -> admission queue ->
// drainer -> partitioned engine. The pipeline is supervised: a panic or
// ingest error tears the incarnation down and a restart rebuilds the
// engine and queue from the site's committed segments, so eng and q
// are swapped atomically and readers always hold a coherent pair from
// one incarnation.
type siteDaemon struct {
	id      string
	logPath string

	eng atomic.Pointer[stream.Sharded]
	q   atomic.Pointer[overload.Queue[mce.CERecord]]

	// primed marks the startup-built incarnation (restored from the
	// state ladder) as not yet consumed by the site's first supervised
	// run; resumeCP is its scanner resume point in file coordinates.
	primed   atomic.Bool
	resumeCP syslog.Checkpoint

	// unit is the site's supervision handle, published once the
	// supervisor has spawned it; the HTTP health hook reads it.
	unit atomic.Pointer[supervise.Unit]

	// statsMu guards the published copies of the scanner's and tail's
	// accounting; both are touched only by the ingest goroutine.
	statsMu sync.Mutex
	stats   syslog.ScanStats
	tail    syslog.TailStats

	offset atomic.Int64
	// final is the capture a cleanly stopped incarnation took on its way
	// out (queue drained, resume offset translated), committed by the
	// shutdown path. A quarantined site has none, so its committed
	// entry rides along unchanged.
	final atomic.Pointer[statestore.Delta]

	// cpUntranslatable counts checkpoint captures skipped because the
	// scanner offset predated a log rotation (no file position to
	// resume from until the scanner crosses into the new segment).
	cpUntranslatable atomic.Uint64

	// alarms is the site's first-alarm ledger. It outlives pipeline
	// incarnations (a supervised restart keeps it) and rides in every
	// checkpoint.
	alarms alarmLedger
}

func (s *siteDaemon) engine() *stream.Sharded              { return s.eng.Load() }
func (s *siteDaemon) queue() *overload.Queue[mce.CERecord] { return s.q.Load() }

// siteDaemon is the serve.Source for its site, delegating to the current
// engine incarnation so a supervised restart swaps cleanly under the
// HTTP layer.
func (s *siteDaemon) LiveView() *stream.View  { return s.engine().LiveView() }
func (s *siteDaemon) Seq() uint64             { return s.engine().Seq() }
func (s *siteDaemon) Summary() stream.Summary { return s.engine().Summary() }
func (s *siteDaemon) Shed() uint64            { return s.engine().Shed() }
func (s *siteDaemon) DIMMs() int              { return s.engine().DIMMs() }

// daemon owns the per-site pipelines and the state shared with the HTTP
// layer.
type daemon struct {
	cfg   daemonConfig
	log   *slog.Logger
	sites []*siteDaemon

	// predictor scores bank features for the risk endpoints and the
	// alarm ledgers; Score is read-only so one instance serves every
	// site concurrently.
	predictor predict.Predictor

	breaker *overload.Breaker
	// store owns the durable state (nil without -state).
	store *statestore.Store
	// cpCh carries captured deltas to the checkpoint writer; capacity 1
	// so a stalled disk backs up into skipped checkpoints, never into
	// the ingest loops.
	cpCh chan statestore.Delta
	// fs is the filesystem for state writes; tests and the load harness
	// substitute a fault injector.
	fs atomicio.FS
	// freezeSeconds times each capture's admission freeze.
	freezeSeconds *serve.Histogram

	checkpoints   atomic.Uint64
	cpSkipped     atomic.Uint64
	gensDiscarded atomic.Uint64
}

// publishStats exposes a snapshot of the site's scanner accounting to
// the HTTP layer (the scanner itself is not concurrency-safe).
func (s *siteDaemon) publishStats(st syslog.ScanStats) {
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
}

// publishTail exposes the follower's rotation accounting (same ownership
// rule as publishStats).
func (s *siteDaemon) publishTail(st syslog.TailStats) {
	s.statsMu.Lock()
	s.tail = st
	s.statsMu.Unlock()
}

// snapshotStats aggregates scanner accounting across sites: the legacy
// unlabelled ingest series report the all-sites totals.
func (d *daemon) snapshotStats() syslog.ScanStats {
	var sum syslog.ScanStats
	for _, s := range d.sites {
		s.statsMu.Lock()
		st := s.stats
		s.statsMu.Unlock()
		sum.Lines += st.Lines
		sum.CEs += st.CEs
		sum.DUEs += st.DUEs
		sum.HETs += st.HETs
		sum.Other += st.Other
		sum.Malformed += st.Malformed
		sum.Truncated += st.Truncated
		sum.Garbage += st.Garbage
		sum.Duplicated += st.Duplicated
		sum.Reordered += st.Reordered
		sum.DroppedOutOfOrder += st.DroppedOutOfOrder
	}
	return sum
}

// tailTotals aggregates rotation accounting across sites.
func (d *daemon) tailTotals() syslog.TailStats {
	var sum syslog.TailStats
	for _, s := range d.sites {
		s.statsMu.Lock()
		st := s.tail
		s.statsMu.Unlock()
		sum.Rotations += st.Rotations
		sum.Truncations += st.Truncations
		sum.DroppedPartials += st.DroppedPartials
		sum.DroppedBytes += st.DroppedBytes
	}
	return sum
}

func (d *daemon) scanConfig() syslog.ScanConfig {
	return syslog.ScanConfig{DedupWindow: d.cfg.dedupWindow, ReorderWindow: d.cfg.reorderWindow}
}

// overloadStatus bundles the admission layer's state for /healthz and
// /metrics: queue books summed across sites, saturation if any site is
// shedding, plus the (global) checkpoint breaker.
func (d *daemon) overloadStatus() overload.Status {
	var q overload.QueueStats
	for _, s := range d.sites {
		st := s.queue().Stats()
		q.Offered += st.Offered
		q.Admitted += st.Admitted
		q.Drained += st.Drained
		q.Rejected += st.Rejected
		q.Evicted += st.Evicted
		q.Shed += st.Shed
		q.Depth += st.Depth
		q.Capacity += st.Capacity
		q.High += st.High
		q.Low += st.Low
		q.Saturated = q.Saturated || st.Saturated
		q.Saturations += st.Saturations
	}
	return overload.Status{Queue: q, Breaker: d.breaker.Stats()}
}

// ingest is one site's scan loop: tail the log through the hardened
// scanner and offer every CE to the site's admission queue. The drainer —
// not this goroutine — feeds the engine, so a slow clustering step backs
// up into the queue (visible, bounded, shed by policy) instead of into
// the tail. The follower is rotation-tolerant: after a rotation the
// scanner's checkpoint offsets live in stream coordinates, so every
// capture is translated into current-file coordinates first — an offset
// that still points into a rotated-away segment skips the capture (and
// is counted) rather than recording an unusable resume point. It returns
// the final checkpoint, already translated, and whether the translation
// held, so the shutdown path can persist the exact resume point once the
// queue has drained.
func (d *daemon) ingest(ctx context.Context, s *siteDaemon, q *overload.Queue[mce.CERecord], f *os.File, cp syslog.Checkpoint) (syslog.Checkpoint, bool, error) {
	follower := syslog.NewFollower(ctx, f, syslog.TailConfig{Poll: d.cfg.poll, Path: s.logPath})
	sc := syslog.NewScannerConfig(follower, d.scanConfig())
	if err := sc.Restore(cp); err != nil {
		return cp, false, err
	}
	last := time.Now()
	// Tail stats only move at rotation events, so republishing them per
	// record would add a lock acquisition to the hot path for nothing.
	lastTail := follower.Stats()
	s.publishTail(lastTail)
	for sc.Scan() {
		if rec := sc.Record(); rec.Kind == syslog.KindCE {
			q.Offer(rec.CE)
		}
		s.publishStats(sc.Stats())
		if st := follower.Stats(); st != lastTail {
			lastTail = st
			s.publishTail(st)
		}
		s.offset.Store(sc.Offset())
		if d.store != nil && time.Since(last) >= d.cfg.checkpointSec {
			if fcp, ok := d.translate(s, follower, sc.Checkpoint()); ok {
				d.offerCheckpoint(d.capture(s, fcp))
			}
			last = time.Now()
		}
	}
	s.publishStats(sc.Stats())
	s.publishTail(follower.Stats())
	s.offset.Store(sc.Offset())

	err := sc.Err()
	if errors.Is(err, syslog.ErrTailStopped) {
		err = nil
	}
	fcp, ok := d.translate(s, follower, sc.Checkpoint())
	return fcp, ok, err
}

// translate maps a scanner checkpoint's stream offset into current-file
// coordinates for seek-on-resume. ok is false when the offset predates
// the last rotation — nothing in the current file corresponds to it.
func (d *daemon) translate(s *siteDaemon, fo *syslog.Follower, cp syslog.Checkpoint) (syslog.Checkpoint, bool) {
	off, ok := fo.FileOffset(cp.Offset)
	if !ok {
		s.cpUntranslatable.Add(1)
		d.log.Warn("checkpoint capture skipped", "site", s.id, "reason", "offset predates log rotation")
		return cp, false
	}
	cp.Offset = off
	return cp, true
}

// drain is the consumer side of one site's admission queue: batches go
// into the engine, Done releases any Freeze waiting for a consistent
// snapshot. An optional pause between batches exists for the chaos
// harness (and operators throttling a cold restore); it runs after
// Done, so checkpoints never wait out the pause. It takes the queue and
// engine of one incarnation explicitly so a supervised restart never
// crosses incarnations mid-batch.
func (d *daemon) drain(q *overload.Queue[mce.CERecord], eng *stream.Sharded) {
	for {
		batch, ok := q.Take(d.cfg.drainBatch)
		if len(batch) > 0 {
			eng.IngestBatch(batch)
			q.Done()
			if d.cfg.drainInterval > 0 {
				time.Sleep(d.cfg.drainInterval)
			}
		}
		if !ok {
			return
		}
	}
}

// capture takes one site's checkpoint delta at a consistent instant:
// Freeze waits out any in-flight drain batch, then the engine's records
// past the committed watermark plus the still-queued records are exactly
// the CEs the scanner had emitted at cp beyond what the last committed
// head holds — a restart loses nothing and duplicates nothing. Only the
// delta is copied under the freeze, so the stall is proportional to the
// change since the last commit, not to history; encoding and I/O happen
// in the checkpoint writer. The watermark counts records that were still
// queued when it was captured; if the queue has evicted records since
// (drop-oldest shedding), some of those may never reach the engine, so
// the capture starts over from record 0. The shed count and the alarm
// ledger ride along — checkpoint cadence is the alarm granularity, so
// the stamped times are always consistent with the records they ride
// with.
func (d *daemon) capture(s *siteDaemon, cp syslog.Checkpoint) statestore.Delta {
	wm := d.store.Watermark(s.id)
	eng := s.engine()
	delta := statestore.Delta{Site: s.id, Epoch: wm.Epoch, Checkpoint: cp}
	start := time.Now()
	s.queue().Freeze(func(queued []mce.CERecord, st overload.QueueStats) {
		base := wm.Records
		if st.Evicted != wm.Fence {
			base = 0
		}
		recs, total := eng.RecordsSince(base)
		if base > total+len(queued) {
			base = 0
			recs, total = eng.RecordsSince(0)
		}
		delta.Base, delta.Fence = base, st.Evicted
		delta.Records = append(recs, queued[max(base-total, 0):]...)
		delta.Shed = eng.Shed()
		s.alarms.observe(eng.Features(), d.predictor, d.cfg.riskThreshold, time.Now())
		delta.Alarms = s.alarms.snapshot()
	})
	d.freezeSeconds.Observe(time.Since(start).Seconds())
	return delta
}

// offerCheckpoint hands a capture to the async writer; if the writer is
// still busy with the previous one (stalled disk), the checkpoint is
// skipped — cadence degrades, ingest does not, and the next capture
// starts again from the committed watermark, so no delta is lost.
func (d *daemon) offerCheckpoint(delta statestore.Delta) {
	select {
	case d.cpCh <- delta:
	default:
		d.cpSkipped.Add(1)
		d.log.Warn("checkpoint skipped", "reason", "writer busy")
	}
}

// offsetBytes sums the byte offsets consumed across all tailed logs.
func (d *daemon) offsetBytes() int64 {
	var n int64
	for _, s := range d.sites {
		n += s.offset.Load()
	}
	return n
}

// checkpointWriter drains cpCh through the circuit breaker: commits that
// fail — or stall past -checkpoint-timeout — count against the breaker,
// and an open breaker fast-fails checkpoints for the cooldown instead of
// queueing more I/O behind a sick disk.
func (d *daemon) checkpointWriter() {
	for delta := range d.cpCh {
		if !d.breaker.Allow() {
			d.cpSkipped.Add(1)
			continue
		}
		start := time.Now()
		info, err := d.store.Commit(context.Background(), delta)
		elapsed := time.Since(start)
		switch {
		case err != nil:
			d.breaker.Failure()
			d.log.Warn("checkpoint failed", "err", err)
		case d.cfg.cpTimeout > 0 && elapsed > d.cfg.cpTimeout:
			// The write landed but the disk is stalling: trip toward open
			// so the next writes are skipped instead of piling up.
			d.breaker.Failure()
			d.checkpoints.Add(1)
			d.log.Warn("checkpoint slow", "elapsed", elapsed, "breaker", d.breaker.State().String())
		default:
			d.breaker.Success()
			d.checkpoints.Add(1)
			d.log.Info("checkpoint", "bytes", info.Bytes, "records", len(delta.Records), "offset", d.offsetBytes())
		}
		if info.SweepErr != nil {
			d.log.Warn("segment sweep failed", "err", info.SweepErr)
		}
	}
}
