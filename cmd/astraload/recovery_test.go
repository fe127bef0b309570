package main

import (
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/statestore"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// TestRecoveryStateSeal pins what the recovery chaos relies on in the
// state store: a committed checkpoint round-trips, and a flipped bit in
// the head, a flipped bit in a segment, or a torn segment each reject
// the generation.
func TestRecoveryStateSeal(t *testing.T) {
	cp := syslog.Checkpoint{Offset: 12345}
	recs := []mce.CERecord{{
		Time: time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC),
		Node: topology.NewNodeID(1, 2, 3),
	}}
	statePath := filepath.Join(t.TempDir(), "state")
	store, _, err := statestore.Open(nil, statePath, 1, []string{recoverySite})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Commit(context.Background(), statestore.Delta{Site: recoverySite, Checkpoint: cp, Records: recs}); err != nil {
		t.Fatal(err)
	}
	ld, err := statestore.Load(nil, statePath, 1)
	if err != nil || ld.Gen != 0 {
		t.Fatalf("load = gen %d, %v", ld.Gen, err)
	}
	if got := ld.Sites[0]; got.Checkpoint.Offset != cp.Offset || len(got.Records) != 1 || got.Records[0] != recs[0] {
		t.Fatalf("round trip = offset %d, %d records", got.Checkpoint.Offset, len(got.Records))
	}
	heads, err := statestore.ReadHead(nil, statePath)
	if err != nil {
		t.Fatal(err)
	}
	seg := statestore.SegmentPath(statePath, heads[0].Segments[0].Name)
	for name, damage := range map[string]func() error{
		"head bit flip":    func() error { _, _, err := iofault.FlipBit(statePath, 3); return err },
		"segment bit flip": func() error { _, _, err := iofault.FlipBit(seg, 5); return err },
		"torn segment":     func() error { _, err := iofault.Truncate(seg, 7); return err },
	} {
		head, segData := mustRead(t, statePath), mustRead(t, seg)
		if err := damage(); err != nil {
			t.Fatal(err)
		}
		if ld, err := statestore.Load(nil, statePath, 1); err != nil || ld.Gen != -1 || len(ld.Discarded) != 1 {
			t.Fatalf("%s went undetected: gen %d, %d discarded, %v", name, ld.Gen, len(ld.Discarded), err)
		}
		if err := os.WriteFile(statePath, head, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, segData, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryScenarioConverges runs the full kill + corrupt-newest-
// generation + rotate-mid-tail chaos sequence and checks the verdict:
// the restarted pipeline walked the ladder past the damaged generations,
// resumed from a post-rotation offset, and converged to the exact batch
// answer within the bound.
func TestRecoveryScenarioConverges(t *testing.T) {
	rs := RecoverySpec{Seed: 7, Nodes: 32, Partitions: 2, Keep: 4, BoundMS: 60000}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	rr, err := rs.run(context.Background(), logger)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.ConvergedOK {
		t.Fatalf("recovery did not converge: %s (%+v)", rr.Detail, rr)
	}
	if rr.GenerationsDiscarded != recoveryFaults || rr.SurvivorGeneration != recoveryFaults {
		t.Fatalf("ladder walk: discarded %d, survivor gen %d", rr.GenerationsDiscarded, rr.SurvivorGeneration)
	}
	if rr.Rotations != 1 {
		t.Fatalf("rotations absorbed = %d, want 1", rr.Rotations)
	}
	if rr.RecordsRestored == 0 || rr.RecordsReplayed == 0 {
		t.Fatalf("recovery did no work: restored %d replayed %d", rr.RecordsRestored, rr.RecordsReplayed)
	}
	if rr.RecordsRestored+rr.RecordsReplayed != rr.Records {
		t.Fatalf("restored %d + replayed %d != records %d", rr.RecordsRestored, rr.RecordsReplayed, rr.Records)
	}
	if rr.RecoveryMs <= 0 || rr.RecoveryMs > rs.BoundMS {
		t.Fatalf("recovery time %vms outside (0, %v]", rr.RecoveryMs, rs.BoundMS)
	}
}
