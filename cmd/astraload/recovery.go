// The recovery scenario is the self-healing proof: a real tail -> scan
// -> ingest pipeline checkpointing through internal/statestore — the
// state format astrad writes — is killed mid-tail right after its log
// rotated, and its three newest generations are damaged: the newest
// head bit-flipped, a segment only the next generation references
// bit-flipped, and a segment only the third references torn. A
// restarted incarnation must walk the checkpoint ladder to the
// surviving generation, re-ingest the offset delta, and converge to the
// exact batch answer within a bounded time. It is the same contract
// cmd/astrad lives by, exercised here with deterministic chaos so
// BENCH_serve.json can pin "crash recovery converges" next to the
// latency and shed-rate numbers.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/statestore"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// Recovery-pipeline ingest policy, matching the astrad defaults the
// daemon tests converge under.
const (
	recoveryDedup   = 64
	recoveryReorder = 5 * time.Minute
	recoveryNoise   = 50
	recoveryPoll    = 2 * time.Millisecond
)

// RecoverySpec pins the kill+corrupt+rotate recovery scenario. Like the
// load Scenario, every field is echoed into the baseline so -guard
// re-runs it exactly.
type RecoverySpec struct {
	Seed       uint64 `json:"seed"`
	Nodes      int    `json:"nodes"`
	Partitions int    `json:"partitions"`
	// Keep is the checkpoint ladder depth (atomicio.Generations); the
	// chaos damages three generations, so it must be at least 4.
	Keep int `json:"keep"`
	// BoundMS is the hard cap on recovery: the restarted pipeline must
	// converge to the batch answer within this long or the scenario
	// fails outright.
	BoundMS float64 `json:"boundMS"`
}

// RecoveryResult is the recovery scenario's verdict and accounting.
type RecoveryResult struct {
	// ConvergedOK means the restarted pipeline reached the exact batch
	// answer (records, faults, per-mode breakdowns) within BoundMS, and
	// every structural expectation held (exactly the three damaged
	// generations discarded, one rotation absorbed, survivor
	// resumable). Detail
	// says what went wrong when it is false.
	ConvergedOK bool   `json:"convergedOK"`
	Detail      string `json:"detail,omitempty"`
	// RecoveryMs is restart-to-convergence: ladder walk, state restore,
	// and re-ingest of the offset delta.
	RecoveryMs float64 `json:"recoveryMs"`
	// GenerationsDiscarded counts ladder rungs rejected at restart (the
	// damaged newest generations: exactly 3).
	GenerationsDiscarded int `json:"generationsDiscarded"`
	// SurvivorGeneration is the rung the restart resumed from (3).
	SurvivorGeneration int `json:"survivorGeneration"`
	// Rotations is how many log rotations the first incarnation's
	// follower absorbed mid-tail (the scenario performs 1).
	Rotations int64 `json:"rotations"`
	// Checkpoints counts ladder writes before the kill.
	Checkpoints int `json:"checkpoints"`
	// RecordsRestored came from the surviving generation's state;
	// RecordsReplayed were re-ingested from the log past its offset.
	RecordsRestored int `json:"recordsRestored"`
	RecordsReplayed int `json:"recordsReplayed"`
	Records         int `json:"records"`
	Faults          int `json:"faults"`
}

// recoveryCounters is the one-way telemetry from a pipeline incarnation
// to the orchestrator: how far the tail has read, how many ladder writes
// happened, how many rotations the follower absorbed, and how many CEs
// the engine holds. The orchestrator paces the chaos off these.
type recoveryCounters struct {
	checkpoints atomic.Int64
	rotations   atomic.Int64
	ingested    atomic.Int64
}

// recoverySite is the recovery pipeline's one site in the state store.
const recoverySite = "default"

// recoveryFaults is how many of the newest generations the chaos
// damages: a bit-flipped head, a bit flip inside a segment, a torn
// segment. The ladder needs one more rung for the survivor.
const recoveryFaults = 3

// runRecoveryTail is one pipeline incarnation: tail logPath from cp,
// ingest every CE, and commit a checkpoint through store every cpEvery
// CEs — the delta past the committed watermark, exactly as astrad's
// capture takes it. It does NOT checkpoint on the way out — a cancelled
// incarnation dies as abruptly as a crash, which is the point. stopAt >
// 0 ends the run cleanly once the engine holds that many records (the
// restarted incarnation's convergence condition).
func runRecoveryTail(ctx context.Context, logPath string, store *statestore.Store, eng *stream.Sharded,
	cp syslog.Checkpoint, base int, cpEvery int, stopAt int, ctr *recoveryCounters) error {
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(cp.Offset, io.SeekStart); err != nil {
		return err
	}
	follower := syslog.NewFollower(ctx, f, syslog.TailConfig{Poll: recoveryPoll, Path: logPath})
	sc := syslog.NewScannerConfig(follower, syslog.ScanConfig{
		DedupWindow:   recoveryDedup,
		ReorderWindow: recoveryReorder,
	})
	if err := sc.Restore(cp); err != nil {
		return err
	}
	count, sinceCP := base, 0
	for sc.Scan() {
		ctr.rotations.Store(follower.Stats().Rotations)
		if rec := sc.Record(); rec.Kind == syslog.KindCE {
			eng.IngestBatch([]mce.CERecord{rec.CE})
			count++
			sinceCP++
			ctr.ingested.Store(int64(count))
		}
		if stopAt > 0 && count >= stopAt {
			return nil
		}
		if sinceCP >= cpEvery {
			sinceCP = 0
			ccp := sc.Checkpoint()
			off, ok := follower.FileOffset(ccp.Offset)
			if !ok {
				continue // offset predates the rotation; nothing resumable
			}
			ccp.Offset = off
			wm := store.Watermark(recoverySite)
			recs, _ := eng.RecordsSince(wm.Records)
			if _, err := store.Commit(context.Background(), statestore.Delta{
				Site: recoverySite, Epoch: wm.Epoch, Base: wm.Records, Checkpoint: ccp, Records: recs,
			}); err != nil {
				return err
			}
			ctr.checkpoints.Add(1)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, syslog.ErrTailStopped) {
		return err
	}
	return nil
}

// newSegments lists the segments generation gen's head references that
// the next older generation's does not: the ones its own commit wrote.
func newSegments(statePath string, gen int) ([]string, error) {
	g := atomicio.Generations{Path: statePath}
	heads, err := statestore.ReadHead(nil, g.Gen(gen))
	if err != nil {
		return nil, err
	}
	older, err := statestore.ReadHead(nil, g.Gen(gen+1))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, h := range older {
		for _, sg := range h.Segments {
			seen[sg.Name] = true
		}
	}
	var out []string
	for _, h := range heads {
		for _, sg := range h.Segments {
			if !seen[sg.Name] {
				out = append(out, statestore.SegmentPath(statePath, sg.Name))
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("generation %d wrote no segment of its own", gen)
	}
	return out, nil
}

// waitUntil polls cond once a millisecond until it holds or the deadline
// passes.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// run executes the recovery scenario. Orchestration errors (dataset
// build, filesystem) surface as err; broken recovery semantics surface
// as ConvergedOK=false with Detail, so -guard and the baseline gate
// treat them as contract violations.
func (rs RecoverySpec) run(ctx context.Context, logger *slog.Logger) (RecoveryResult, error) {
	var rr RecoveryResult
	fail := func(format string, args ...any) (RecoveryResult, error) {
		rr.Detail = fmt.Sprintf(format, args...)
		logger.Error("recovery scenario failed", "detail", rr.Detail)
		return rr, nil
	}

	// The truth: the full dataset's syslog with a far-future HET sentinel
	// so the reorder window releases every CE, and the batch answer over
	// exactly the records the hardened read admits.
	cfg := dataset.DefaultConfig(rs.Seed)
	cfg.Nodes = rs.Nodes
	ds, err := dataset.Build(ctx, cfg)
	if err != nil {
		return rr, err
	}
	var full bytes.Buffer
	if err := ds.WriteSyslog(&full, recoveryNoise); err != nil {
		return rr, err
	}
	var maxT time.Time
	for _, r := range ds.CERecords {
		if r.Time.After(maxT) {
			maxT = r.Time
		}
	}
	full.WriteString(syslog.FormatHET(het.Record{
		Time:     maxT.Add(recoveryReorder + time.Minute),
		Node:     ds.CERecords[0].Node,
		Type:     het.UncorrectableECC,
		Severity: het.SeverityNonRecoverable,
	}))
	full.WriteByte('\n')
	log := full.Bytes()
	pol := dataset.IngestPolicy{DedupWindow: recoveryDedup, ReorderWindow: recoveryReorder, MaxMalformedFrac: -1}
	want, _, _, _, err := dataset.ReadSyslogPolicy(bytes.NewReader(log), pol)
	if err != nil {
		return rr, err
	}
	if len(want) == 0 {
		return rr, fmt.Errorf("astraload: recovery: dataset produced no CE records")
	}
	wantBatch, err := core.Cluster(ctx, want, core.DefaultClusterConfig())
	if err != nil {
		return rr, err
	}
	wantBreak := core.BreakdownByMode(want, wantBatch)

	// Split at a line boundary: s1 is the pre-rotation log, s2 the
	// successor file the rotation installs.
	cut := bytes.LastIndexByte(log[:len(log)/2], '\n') + 1
	if cut <= 0 {
		return rr, fmt.Errorf("astraload: recovery: no line boundary in first half of log")
	}
	s1, s2 := log[:cut], log[cut:]

	dir, err := os.MkdirTemp("", "astraload-recovery")
	if err != nil {
		return rr, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "astra.log")
	statePath := filepath.Join(dir, "astraload-state")
	if err := os.WriteFile(logPath, s1, 0o644); err != nil {
		return rr, err
	}
	if rs.Keep < recoveryFaults+1 {
		return rr, fmt.Errorf("astraload: recovery: keep %d leaves no survivor behind %d damaged generations", rs.Keep, recoveryFaults)
	}
	store, _, err := statestore.Open(nil, statePath, rs.Keep, []string{recoverySite})
	if err != nil {
		return rr, err
	}
	mkEngine := func() *stream.Sharded {
		return stream.NewSharded(stream.ShardedConfig{
			Partitions: rs.Partitions,
			Engine:     stream.Config{DIMMs: rs.Nodes * topology.SlotsPerNode},
		})
	}
	bound := time.Duration(rs.BoundMS * float64(time.Millisecond))
	deadline := time.Now().Add(bound)
	cpEvery := len(want) / 12
	if cpEvery < 1 {
		cpEvery = 1
	}

	// Incarnation A: tail from offset 0, checkpointing to the ladder.
	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	engA := mkEngine()
	var ctr recoveryCounters
	aDone := make(chan error, 1)
	go func() {
		aDone <- runRecoveryTail(ctxA, logPath, store, engA, syslog.Checkpoint{}, 0, cpEvery, 0, &ctr)
	}()
	fatalA := func() (RecoveryResult, error, bool) {
		select {
		case aerr := <-aDone:
			return rr, fmt.Errorf("astraload: recovery: pipeline died during chaos: %v", aerr), true
		default:
			return rr, nil, false
		}
	}
	if !waitUntil(deadline, func() bool { return ctr.checkpoints.Load() >= 1 }) {
		if r, e, died := fatalA(); died {
			return r, e
		}
		return fail("no checkpoint written within %v", bound)
	}

	// Rotate mid-tail: classic rename-and-recreate. The follower drains
	// the renamed inode, then reopens the successor at offset 0.
	if err := os.Rename(logPath, logPath+".old"); err != nil {
		return rr, err
	}
	if err := os.WriteFile(logPath, s2, 0o644); err != nil {
		return rr, err
	}
	if !waitUntil(deadline, func() bool { return ctr.rotations.Load() >= 1 }) {
		if r, e, died := fatalA(); died {
			return r, e
		}
		return fail("follower never absorbed the rotation within %v", bound)
	}
	// Enough ladder writes after the rotation was absorbed that, with
	// the newest generations damaged, the survivor still carries a
	// successor-file offset.
	cpAtRotate := ctr.checkpoints.Load()
	if !waitUntil(deadline, func() bool { return ctr.checkpoints.Load() >= cpAtRotate+recoveryFaults+1 }) {
		if r, e, died := fatalA(); died {
			return r, e
		}
		return fail("fewer than %d post-rotation checkpoints within %v", recoveryFaults+1, bound)
	}

	// Kill: cancel with no farewell checkpoint, then damage the three
	// newest generations three ways — the crash left a bit-flipped head,
	// a bit flip inside a segment only generation 1 references, and a
	// torn segment only generation 2 references.
	cancelA()
	if aerr := <-aDone; aerr != nil {
		return rr, fmt.Errorf("astraload: recovery: pipeline error at kill: %v", aerr)
	}
	rr.Checkpoints = int(ctr.checkpoints.Load())
	rr.Rotations = ctr.rotations.Load()
	flipped, err := newSegments(statePath, 1)
	if err != nil {
		return rr, err
	}
	torn, err := newSegments(statePath, 2)
	if err != nil {
		return rr, err
	}
	if _, _, err := iofault.FlipBit(statePath, rs.Seed|1); err != nil {
		return rr, err
	}
	if _, _, err := iofault.FlipBit(flipped[0], rs.Seed|2); err != nil {
		return rr, err
	}
	if _, err := iofault.Truncate(torn[0], rs.Seed|4); err != nil {
		return rr, err
	}

	// Restart: walk the ladder, restore the survivor, re-ingest the
	// delta, and converge — the clock measures all of it.
	restart := time.Now()
	ld, err := statestore.Load(nil, statePath, rs.Keep)
	if err != nil {
		return rr, err
	}
	gen, discarded := ld.Gen, ld.Discarded
	rr.GenerationsDiscarded = len(discarded)
	rr.SurvivorGeneration = gen
	if len(discarded) != recoveryFaults {
		return fail("discarded %d generations, want exactly the %d damaged newest", len(discarded), recoveryFaults)
	}
	if gen != recoveryFaults {
		return fail("survivor generation = %d, want %d", gen, recoveryFaults)
	}
	cp, recs := ld.Sites[0].Checkpoint, ld.Sites[0].Records
	rr.RecordsRestored = len(recs)
	if fi, err := os.Stat(logPath); err != nil {
		return rr, err
	} else if fi.Size() < cp.Offset {
		return fail("survivor offset %d beyond successor log size %d: resume point not in rotated file", cp.Offset, fi.Size())
	}
	engB := mkEngine()
	engB.IngestBatch(recs)
	ctxB, cancelB := context.WithDeadline(ctx, deadline)
	defer cancelB()
	var ctrB recoveryCounters
	storeB, _, err := statestore.Open(nil, statePath+".post", rs.Keep, []string{recoverySite})
	if err != nil {
		return rr, err
	}
	berr := runRecoveryTail(ctxB, logPath, storeB, engB, cp, len(recs), cpEvery, len(want), &ctrB)
	rr.RecoveryMs = float64(time.Since(restart).Microseconds()) / 1000
	if berr != nil {
		return rr, fmt.Errorf("astraload: recovery: restarted pipeline: %v", berr)
	}
	rr.RecordsReplayed = int(ctrB.ingested.Load()) - len(recs)

	sum := engB.Summary()
	rr.Records = sum.Records
	rr.Faults = sum.Faults
	if sum.Records != len(want) {
		return fail("recovered %d records within %v, want %d (restored %d, replayed %d)",
			sum.Records, bound, len(want), rr.RecordsRestored, rr.RecordsReplayed)
	}
	if sum.Faults != len(wantBatch) || sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		return fail("recovered population diverged from batch: faults %d want %d, by-mode %v want %v",
			sum.Faults, len(wantBatch), sum.FaultsByMode, wantBreak.FaultsByMode)
	}
	rr.ConvergedOK = true
	logger.Info("recovery converged",
		"ms", rr.RecoveryMs, "survivorGen", gen, "discarded", len(discarded),
		"restored", rr.RecordsRestored, "replayed", rr.RecordsReplayed)
	return rr, nil
}
