package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/statestore"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// ckptHarness is one daemon incarnation's checkpoint path without the
// tail or HTTP: records are offered to the site's admission queue by
// hand, a throttled drainer keeps a backlog queued, and captures and
// commits go through the daemon's own capture and the state store. A
// capture's scanner checkpoint carries the number of records offered so
// far as its offset, so every committed generation says which prefix of
// the stream it must hold.
type ckptHarness struct {
	d       *daemon
	s       *siteDaemon
	drained chan struct{}
	offered int
}

func startHarness(t *testing.T, fsys atomicio.FS, statePath string, partitions int) (*ckptHarness, statestore.Snapshot) {
	t.Helper()
	d := &daemon{
		cfg: daemonConfig{
			statePath: statePath, stateKeep: 3, partitions: partitions,
			queueDepth: 1 << 16, drainBatch: 32, drainInterval: 200 * time.Microsecond,
			dimms: 48 * topology.SlotsPerNode, window: stream.DefaultWindow,
			riskThreshold: serve.DefaultRiskThreshold,
		},
		log:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		breaker:       overload.NewBreaker(overload.BreakerConfig{Failures: 1 << 20}),
		cpCh:          make(chan statestore.Delta, 1),
		fs:            fsys,
		predictor:     predict.DefaultRuleLadder(),
		freezeSeconds: serve.NewRegistry().NewHistogram("freeze", "", "", nil),
	}
	store, ld, err := statestore.Open(fsys, statePath, d.cfg.stateKeep, []string{"default"})
	if err != nil {
		t.Fatal(err)
	}
	d.store = store
	snap := ld.Sites[0]
	s := &siteDaemon{id: "default"}
	eng, q := d.buildPipeline(snap)
	s.eng.Store(eng)
	s.q.Store(q)
	s.alarms.replace(snap.Alarms)
	d.sites = []*siteDaemon{s}
	h := &ckptHarness{d: d, s: s, drained: make(chan struct{}), offered: int(snap.Checkpoint.Offset)}
	go func() { defer close(h.drained); d.drain(q, eng) }()
	return h, snap
}

func (h *ckptHarness) offer(recs []mce.CERecord) {
	for _, r := range recs {
		if !h.s.queue().Offer(r) {
			panic("harness queue shed a record")
		}
	}
	h.offered += len(recs)
}

func (h *ckptHarness) capture() statestore.Delta {
	return h.d.capture(h.s, syslog.Checkpoint{Offset: int64(h.offered)})
}

// kill stops the incarnation without a farewell checkpoint.
func (h *ckptHarness) kill() {
	h.s.queue().Close()
	<-h.drained
}

// requireCommitted loads the newest generation and requires it to hold
// exactly the first checkpoint-offset records of the stream.
func requireCommitted(t *testing.T, statePath string, ces []mce.CERecord) int {
	t.Helper()
	snaps, err := loadState(statePath)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("committed state: %d sites, %v", len(snaps), err)
	}
	n := int(snaps[0].Checkpoint.Offset)
	if !reflect.DeepEqual(snaps[0].Records, ces[:n]) {
		t.Fatalf("committed generation holds %d records, not the %d-record prefix its checkpoint names", len(snaps[0].Records), n)
	}
	return n
}

// requireBatch drains the incarnation and requires the engine to equal
// the batch answer over the whole stream.
func requireBatch(t *testing.T, h *ckptHarness, ces []mce.CERecord) {
	t.Helper()
	h.kill()
	eng := h.s.engine()
	if got := eng.Records(); !reflect.DeepEqual(got, ces) {
		t.Fatalf("engine holds %d records, want the %d-record stream", len(got), len(ces))
	}
	want := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, want)
	sum := eng.Summary()
	if sum.Faults != len(want) || sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("restarted engine diverges from batch: %+v", sum)
	}
}

// TestCheckpointDeltaDifferential is the kill/restart differential over
// the v5 checkpoint path: many captures per incarnation, each taken
// with records still queued, committed synchronously and compacted;
// kills at random points without a farewell checkpoint. Every committed
// generation must decode to exactly the engine's records plus the
// queued records at its capture, every capture must carry only the
// records past the committed watermark, and the last restart must equal
// the batch answer.
func TestCheckpointDeltaDifferential(t *testing.T) {
	_, ces := testLog(t)
	ces = ces[:min(len(ces), 20000)]
	for _, parts := range []int{1, 3} {
		statePath := filepath.Join(t.TempDir(), "astrad.state")
		rng := rand.New(rand.NewSource(int64(parts)))
		var h *ckptHarness
		commits, maxSegs, merged := 0, 0, false
		for incarnation := 0; ; incarnation++ {
			var snap statestore.Snapshot
			h, snap = startHarness(t, atomicio.OS, statePath, parts)
			if !reflect.DeepEqual(snap.Records, ces[:h.offered]) && h.offered > 0 {
				t.Fatalf("parts=%d incarnation %d restored %d records, not the %d-record prefix", parts, incarnation, len(snap.Records), h.offered)
			}
			if h.offered == len(ces) || incarnation == 6 {
				break
			}
			for i := 0; i < 12 && h.offered < len(ces); i++ {
				h.offer(ces[h.offered:min(h.offered+1+rng.Intn(len(ces)/60), len(ces))])
				wm := h.d.store.Watermark("default")
				delta := h.capture()
				if delta.Base != wm.Records || delta.Base+len(delta.Records) != h.offered {
					t.Fatalf("capture covers [%d,%d), want [%d,%d)", delta.Base, delta.Base+len(delta.Records), wm.Records, h.offered)
				}
				if _, err := h.d.store.Commit(context.Background(), delta); err != nil {
					t.Fatal(err)
				}
				commits++
				if n := requireCommitted(t, statePath, ces); n != h.offered {
					t.Fatalf("commit holds %d records, offered %d", n, h.offered)
				}
				segs := h.d.store.Segments("default")
				merged = merged || segs < maxSegs
				maxSegs = max(maxSegs, segs)
			}
			h.offer(ces[h.offered:min(h.offered+rng.Intn(200), len(ces))]) // lost to the kill
			h.kill()
		}
		h.offer(ces[h.offered:])
		requireBatch(t, h, ces)
		if commits < 30 || !merged {
			t.Fatalf("parts=%d: %d commits, compaction merged=%v: the schedule does not exercise the store", parts, commits, merged)
		}
	}
}

// TestCheckpointWriterStallLosesNoDelta stalls every checkpoint write so
// the async writer stays busy across several captures: those captures
// are skipped, yet each commit that does land holds every record up to
// its capture — the skipped deltas ride in the next capture from the
// committed watermark — and a restart from it converges to the batch
// answer.
func TestCheckpointWriterStallLosesNoDelta(t *testing.T) {
	_, ces := testLog(t)
	ces = ces[:min(len(ces), 20000)]
	statePath := filepath.Join(t.TempDir(), "astrad.state")
	stall := iofault.New(atomicio.OS, iofault.Config{Seed: 1, StallWrite: 1, Stall: 20 * time.Millisecond})
	h, _ := startHarness(t, stall, statePath, 2)
	writerDone := make(chan struct{})
	go func() { defer close(writerDone); h.d.checkpointWriter() }()

	cut := len(ces) * 3 / 4
	for h.offered < cut {
		h.offer(ces[h.offered:min(h.offered+len(ces)/100+1, cut)])
		h.d.offerCheckpoint(h.capture())
		time.Sleep(2 * time.Millisecond)
	}
	close(h.d.cpCh)
	<-writerDone
	skipped, written := h.d.cpSkipped.Load(), h.d.checkpoints.Load()
	if skipped < 3 || written < 2 {
		t.Fatalf("stall produced %d skipped and %d written checkpoints; want several of each", skipped, written)
	}
	n := requireCommitted(t, statePath, ces)
	if n <= len(ces)/100+1 {
		t.Fatalf("last commit holds only %d records", n)
	}
	h.kill()

	h, _ = startHarness(t, atomicio.OS, statePath, 1)
	if h.offered != n {
		t.Fatalf("restart resumes at %d, committed %d", h.offered, n)
	}
	h.offer(ces[h.offered:])
	requireBatch(t, h, ces)
}

// TestCheckpointMetricsScrape: /metrics carries what each checkpoint
// cost — the freeze histogram, the bytes written, and each site's
// segment count — and the series move once checkpoints land.
func TestCheckpointMetricsScrape(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs := startDaemonArgs(t, logPath, filepath.Join(dir, "astrad.state"), "-checkpoint-every", "5ms")
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d; stderr:\n%s", code, errs.String())
		}
	}()
	deadline := time.Now().Add(60 * time.Second)
	for countMetric(t, addr, "astrad_checkpoints_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint committed; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		`astrad_checkpoint_freeze_seconds_bucket{le="0.001"}`,
		`astrad_checkpoint_freeze_seconds_bucket{le="+Inf"}`,
		"astrad_checkpoint_freeze_seconds_sum",
		"astrad_checkpoint_freeze_seconds_count",
		"astrad_checkpoint_written_bytes_total",
		`astrad_state_segments{site="default"}`,
	} {
		if !bytes.Contains(body, []byte("\n"+series+" ")) {
			t.Fatalf("metrics missing %s:\n%s", series, body)
		}
	}
	if n := countMetric(t, addr, "astrad_checkpoint_freeze_seconds_count"); n < 1 {
		t.Fatalf("freeze histogram counted %g captures", n)
	}
	if n := countMetric(t, addr, "astrad_checkpoint_written_bytes_total"); n <= 0 {
		t.Fatalf("written bytes = %g after a checkpoint", n)
	}
	if !bytes.Contains(body, []byte(`astrad_state_segments{site="default"} `)) ||
		bytes.Contains(body, []byte(`astrad_state_segments{site="default"} 0`+"\n")) {
		t.Fatalf("segment gauge did not move after a checkpoint:\n%s", body)
	}
}
