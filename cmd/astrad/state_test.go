package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/statestore"
	"repro/internal/syslog"
)

// The testdata/*.state fixtures are v1–v4 text state files as the
// daemon wrote them before the v5 segment layout, over testLog's
// records:
//
//	v1.state         v1, one site: checkpoint after 25 scans, records 0..9
//	v2.state         v2, one site: same checkpoint, shed 7, records 0..9
//	v2-sealed.state  v2 sealed: empty checkpoint, shed 3, records 0..7
//	v3.state         v3: east (checkpoint after 25 scans, shed 3,
//	                 records 0..9) and west (records 10..13)
//	v4.state         v4: v3.state's sites, east with two alarms
//	v4-sealed.state  v4.state sealed

func fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureCheckpoint is the scanner checkpoint the fixtures carry: testLog
// after 25 scans.
func fixtureCheckpoint(t *testing.T) syslog.Checkpoint {
	t.Helper()
	in, _ := testLog(t)
	sc := syslog.NewScannerConfig(bytes.NewReader(in), syslog.ScanConfig{DedupWindow: testDedup, ReorderWindow: testReorder})
	for i := 0; i < 25; i++ {
		if !sc.Scan() {
			t.Fatal("fixture too short")
		}
	}
	return sc.Checkpoint()
}

// loadState reads the one generation at path — a v5 head with its
// segments, or a legacy text file — and returns its sites or the reason
// it was rejected. A missing file is a fresh start (no sites).
func loadState(path string) ([]statestore.Snapshot, error) {
	ld, err := statestore.Load(atomicio.OS, path, 1)
	if err != nil {
		return nil, err
	}
	if len(ld.Discarded) > 0 {
		return nil, ld.Discarded[0].Err
	}
	return ld.Sites, nil
}

// decodeState decodes a legacy state image.
func decodeState(t *testing.T, data []byte) ([]statestore.Snapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "astrad.state")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, err := loadState(path)
	if err == nil && snaps == nil {
		t.Fatal("decodeState: image vanished")
	}
	return snaps, err
}

// upgradeRoundTrip loads a legacy image as a store over sites ids,
// commits once with no capture — the first checkpoint after a legacy
// load, which must write every site's records as one full segment — and
// returns what the committed v5 state loads back as.
func upgradeRoundTrip(t *testing.T, data []byte, ids []string) []statestore.Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "astrad.state")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, ld, err := statestore.Open(atomicio.OS, path, 2, ids)
	if err != nil || !ld.Legacy {
		t.Fatalf("open legacy: legacy=%v err=%v", ld.Legacy, err)
	}
	if _, err := st.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	heads, err := statestore.ReadHead(atomicio.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range heads {
		if want := min(len(ld.Sites[i].Records), 1); len(h.Segments) != want {
			t.Fatalf("site %s: upgrade wrote %d segments, want %d", h.ID, len(h.Segments), want)
		}
	}
	got, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// sameSnapshots requires two restored states to agree on everything a
// restart uses.
func sameSnapshots(t *testing.T, got, want []statestore.Snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d sites, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Shed != w.Shed || g.Checkpoint.Offset != w.Checkpoint.Offset ||
			g.Checkpoint.Buffered() != w.Checkpoint.Buffered() {
			t.Fatalf("site %d: got %s shed=%d offset=%d buffered=%d, want %s shed=%d offset=%d buffered=%d",
				i, g.ID, g.Shed, g.Checkpoint.Offset, g.Checkpoint.Buffered(),
				w.ID, w.Shed, w.Checkpoint.Offset, w.Checkpoint.Buffered())
		}
		if len(g.Records) != len(w.Records) || (len(w.Records) > 0 && !reflect.DeepEqual(g.Records, w.Records)) {
			t.Fatalf("site %s: %d records, want %d (or contents differ)", w.ID, len(g.Records), len(w.Records))
		}
		if len(g.Alarms) != len(w.Alarms) || (len(w.Alarms) > 0 && !reflect.DeepEqual(g.Alarms, w.Alarms)) {
			t.Fatalf("site %s: alarms %+v, want %+v", w.ID, g.Alarms, w.Alarms)
		}
	}
}
