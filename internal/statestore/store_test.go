package statestore

import (
	"context"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// testRecords returns n distinct, time-ordered CE records.
func testRecords(n int) []mce.CERecord {
	out := make([]mce.CERecord, n)
	t0 := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range out {
		out[i] = mce.CERecord{
			Time:   t0.Add(time.Duration(i) * time.Second),
			Node:   topology.NodeID(i % 37),
			Socket: i % 2,
			Slot:   topology.Slot(i % int(topology.SlotsPerNode)),
			Rank:   i % 2,
			Bank:   i % 16,
			RowRaw: i * 7,
			Col:    i % 1024,
			BitPos: i % 576,
			Addr:   topology.PhysAddr(uint64(i) * 64),
		}
	}
	return out
}

func open(t *testing.T, fsys atomicio.FS, path string, keep int, ids ...string) (*Store, Loaded) {
	t.Helper()
	s, ld, err := Open(fsys, path, keep, ids)
	if err != nil {
		t.Fatal(err)
	}
	return s, ld
}

// commitTo commits the records past the site's watermark up to n, as a
// capture would.
func commitTo(t *testing.T, s *Store, id string, recs []mce.CERecord, n int) CommitInfo {
	t.Helper()
	wm := s.Watermark(id)
	info, err := s.Commit(context.Background(), Delta{
		Site: id, Epoch: wm.Epoch, Base: wm.Records,
		Checkpoint: syslog.Checkpoint{Offset: int64(n)},
		Records:    recs[wm.Records:n],
	})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func loadRecords(t *testing.T, path string) ([]mce.CERecord, Loaded) {
	t.Helper()
	ld, err := Load(nil, path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Gen != 0 || len(ld.Sites) != 1 {
		t.Fatalf("load: gen %d, %d sites, discarded %v", ld.Gen, len(ld.Sites), ld.Discarded)
	}
	return ld.Sites[0].Records, ld
}

// segmentFiles lists the segment files beside path.
func segmentFiles(t *testing.T, path string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		hex, ok := strings.CutPrefix(e.Name(), filepath.Base(path)+segmentTag)
		if ok && len(hex) == 16 {
			out = append(out, e.Name())
		}
	}
	return out
}

// ladderRefs is the union of segments every head on the ladder names.
func ladderRefs(t *testing.T, path string, keep int) []string {
	t.Helper()
	g := atomicio.Generations{Path: path, Keep: keep}
	var out []string
	for n := 0; n < keep; n++ {
		heads, err := ReadHead(nil, g.Gen(n))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range segmentNames(heads) {
			if !slices.Contains(out, name) {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestCommitCompactsAndRoundTrips pins the commit/compaction contract:
// every committed generation loads back as exactly the records
// admitted so far, segments merge while the newer holds at least as
// many records as the older, the segment count stays logarithmic, and
// the files on disk are exactly those some head on the ladder names —
// while a file that only looks like a segment is left alone.
func TestCommitCompactsAndRoundTrips(t *testing.T) {
	recs := testRecords(3000)
	path := filepath.Join(t.TempDir(), "astrad.state")
	const keep = 3
	s, _ := open(t, nil, path, keep, "a")
	foreign := path + segmentTag + "notes.txt"
	if err := os.WriteFile(foreign, []byte("operator's notes"), 0o644); err != nil {
		t.Fatal(err)
	}

	var counts []int
	n := 0
	for step := 1; n < len(recs); step = step*3%17 + 1 {
		n = min(n+step*9, len(recs))
		info := commitTo(t, s, "a", recs, n)
		if info.SweepErr != nil {
			t.Fatal(info.SweepErr)
		}
		got, _ := loadRecords(t, path)
		if !reflect.DeepEqual(got, recs[:n]) {
			t.Fatalf("after commit to %d: loaded %d records, not the admitted prefix", n, len(got))
		}
		heads, err := ReadHead(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		var segCounts []int
		for _, g := range heads[0].Segments {
			segCounts = append(segCounts, g.Count)
		}
		for i := 1; i < len(segCounts); i++ {
			if segCounts[i] >= segCounts[i-1] {
				t.Fatalf("segments %v: newer %d not smaller than older %d — compaction missed", segCounts, segCounts[i], segCounts[i-1])
			}
		}
		if len(segCounts) > bits.Len(uint(n))+1 {
			t.Fatalf("%d segments for %d records", len(segCounts), n)
		}
		if s.Segments("a") != len(segCounts) {
			t.Fatalf("Segments = %d, head lists %d", s.Segments("a"), len(segCounts))
		}
		counts = append(counts, len(segCounts))
		if files, refs := segmentFiles(t, path), ladderRefs(t, path, keep); !reflect.DeepEqual(files, refs) {
			t.Fatalf("segment files %v, ladder references %v", files, refs)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("sweep deleted a file the store did not write: %v", err)
	}
	if slices.Max(counts) < 3 {
		t.Fatalf("segment counts %v never exceeded 2: the schedule does not exercise compaction", counts)
	}
	if s.Written() == 0 {
		t.Fatal("Written not accounted")
	}
}

// TestCommitOverlapGapAndEpoch pins how Commit treats captures that do
// not line up with the committed watermark: an overlapping one (taken
// before the previous commit landed) is trimmed, a gap is an error, a
// delta from a superseded incarnation is dropped, and Base 0 replaces
// everything.
func TestCommitOverlapGapAndEpoch(t *testing.T) {
	recs := testRecords(100)
	path := filepath.Join(t.TempDir(), "astrad.state")
	s, _ := open(t, nil, path, 2, "a")
	ctx := context.Background()

	commitTo(t, s, "a", recs, 30)
	// Captured at watermark 10, committed after the watermark moved to 30.
	if _, err := s.Commit(ctx, Delta{Site: "a", Base: 10, Records: recs[10:50]}); err != nil {
		t.Fatal(err)
	}
	if got, _ := loadRecords(t, path); !reflect.DeepEqual(got, recs[:50]) {
		t.Fatalf("overlap not trimmed: %d records", len(got))
	}
	if _, err := s.Commit(ctx, Delta{Site: "a", Base: 60, Records: recs[60:70]}); err == nil {
		t.Fatal("gap accepted")
	}
	if _, err := s.Commit(ctx, Delta{Site: "a", Base: 10, Records: recs[10:20]}); err == nil {
		t.Fatal("stale delta ending before the watermark accepted")
	}
	if _, err := s.Commit(ctx, Delta{Site: "nope"}); err == nil {
		t.Fatal("unknown site accepted")
	}

	snap, err := s.Restore("a")
	if err != nil || !reflect.DeepEqual(snap.Records, recs[:50]) {
		t.Fatalf("restore: %d records, %v", len(snap.Records), err)
	}
	if _, err := s.Commit(ctx, Delta{Site: "a", Epoch: 0, Base: 50, Records: recs[50:60]}); err != nil {
		t.Fatalf("delta from a superseded incarnation: %v", err)
	}
	if wm := s.Watermark("a"); wm.Records != 50 || wm.Epoch != 1 {
		t.Fatalf("watermark = %+v after a dropped delta", wm)
	}
	if _, err := s.Commit(ctx, Delta{Site: "a", Epoch: 1, Base: 0, Records: recs[:5], Fence: 9}); err != nil {
		t.Fatal(err)
	}
	if got, _ := loadRecords(t, path); !reflect.DeepEqual(got, recs[:5]) {
		t.Fatalf("base-0 delta did not replace the segments: %d records", len(got))
	}
	if wm := s.Watermark("a"); wm.Fence != 9 || wm.Records != 5 {
		t.Fatalf("fence not carried: %+v", wm)
	}

	if err := s.Reset("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := loadRecords(t, path); len(got) != 0 {
		t.Fatalf("reset site committed %d records", len(got))
	}
}

// TestMultiSiteCommitKeepsOtherSites: a delta for one site leaves every
// other site's committed entry — checkpoint, shed, ledger, segments —
// exactly as it was.
func TestMultiSiteCommitKeepsOtherSites(t *testing.T) {
	recs := testRecords(60)
	path := filepath.Join(t.TempDir(), "astrad.state")
	s, _ := open(t, nil, path, 2, "east", "west")
	alarms := []Alarm{{Key: core.RecordBankKey(&recs[0]), At: 42}}
	ctx := context.Background()
	if _, err := s.Commit(ctx,
		Delta{Site: "east", Shed: 4, Alarms: alarms, Checkpoint: syslog.Checkpoint{Offset: 7}, Records: recs[:20]},
		Delta{Site: "west", Records: recs[20:30]},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(ctx, Delta{Site: "west", Base: 10, Records: recs[30:60]}); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(nil, path, 2)
	if err != nil || ld.Gen != 0 {
		t.Fatalf("load: gen %d, %v", ld.Gen, err)
	}
	east, west := ld.Sites[0], ld.Sites[1]
	if east.ID != "east" || east.Shed != 4 || east.Checkpoint.Offset != 7 || !reflect.DeepEqual(east.Alarms, alarms) ||
		!reflect.DeepEqual(east.Records, recs[:20]) {
		t.Fatalf("east changed under west's commit: %+v", east)
	}
	if west.ID != "west" || !reflect.DeepEqual(west.Records, append(slices.Clone(recs[20:30]), recs[30:60]...)) {
		t.Fatalf("west = %d records", len(west.Records))
	}
}

// TestCrashBetweenSegmentAndHead kills the filesystem at every
// operation of a commit. Whatever survives loads as exactly the old or
// the new generation — an orphan segment is ignored — and a restarted
// store commits the next delta from the committed watermark, losing
// nothing, and sweeps every orphan.
func TestCrashBetweenSegmentAndHead(t *testing.T) {
	recs := testRecords(400)
	tmpl := filepath.Join(t.TempDir(), "tmpl")
	if err := os.MkdirAll(tmpl, 0o755); err != nil {
		t.Fatal(err)
	}
	const keep = 2
	s, _ := open(t, nil, filepath.Join(tmpl, "astrad.state"), keep, "a")
	commitTo(t, s, "a", recs, 100)
	commitTo(t, s, "a", recs, 150)

	// Count the operations Open and a compacting commit take.
	probeDir := copyDir(t, tmpl)
	probe := iofault.New(atomicio.OS, iofault.Config{})
	ps, _ := open(t, probe, filepath.Join(probeDir, "astrad.state"), keep, "a")
	opened := probe.Ops()
	commitTo(t, ps, "a", recs, 250)
	total := probe.Ops() - opened
	if total < 6 {
		t.Fatalf("a commit took only %d operations", total)
	}

	for k := int64(1); k <= total; k++ {
		dir := copyDir(t, tmpl)
		path := filepath.Join(dir, "astrad.state")
		fsys := iofault.New(atomicio.OS, iofault.Config{KillAfterOps: opened + k})
		ks, _ := open(t, fsys, path, keep, "a")
		wm := ks.Watermark("a")
		_, err := ks.Commit(context.Background(), Delta{Site: "a", Base: wm.Records, Records: recs[wm.Records:250]})
		committed := err == nil // the kill landed in the sweep, after the head
		// A kill inside the ladder rotation leaves a gap at the primary;
		// the walk steps over it to the previous generation.
		ld, err := Load(nil, path, keep)
		if err != nil || ld.Gen < 0 || len(ld.Discarded) != 0 {
			t.Fatalf("kill at op %d: gen %d, discarded %v, %v", k, ld.Gen, ld.Discarded, err)
		}
		if got := ld.Sites[0].Records; !reflect.DeepEqual(got, recs[:250]) && (committed || !reflect.DeepEqual(got, recs[:150])) {
			t.Fatalf("kill at op %d: restored %d records, neither generation", k, len(ld.Sites[0].Records))
		}

		rs, _ := open(t, nil, path, keep, "a")
		commitTo(t, rs, "a", recs, 300)
		if got, _ := loadRecords(t, path); !reflect.DeepEqual(got, recs[:300]) {
			t.Fatalf("kill at op %d: restart committed %d records, want 300", k, len(got))
		}
		if files, refs := segmentFiles(t, path), ladderRefs(t, path, keep); !reflect.DeepEqual(files, refs) {
			t.Fatalf("kill at op %d: orphans survive the next commit: files %v, referenced %v", k, files, refs)
		}
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDamagedSegmentDiscardsOnlyItsGenerations: a missing, bit-flipped
// or torn segment costs exactly the generations whose heads name it;
// the walk restores the newest generation that does not.
func TestDamagedSegmentDiscardsOnlyItsGenerations(t *testing.T) {
	recs := testRecords(200)
	for name, damage := range map[string]func(path string) error{
		"missing": os.Remove,
		"flipped": func(p string) error { _, _, err := iofault.FlipBit(p, 11); return err },
		"torn":    func(p string) error { _, err := iofault.Truncate(p, 13); return err },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "astrad.state")
			s, _ := open(t, nil, path, 4, "a")
			commitTo(t, s, "a", recs, 100) // gen 3: [100]
			commitTo(t, s, "a", recs, 130) // gen 2: [100 30]
			commitTo(t, s, "a", recs, 140) // gen 1: [100 30 10]
			commitTo(t, s, "a", recs, 145) // gen 0: [100 30 10 5]
			heads, err := ReadHead(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			// The 30-record segment: gens 0–2 name it, gen 3 does not.
			if err := damage(SegmentPath(path, heads[0].Segments[1].Name)); err != nil {
				t.Fatal(err)
			}
			ld, err := Load(nil, path, 4)
			if err != nil {
				t.Fatal(err)
			}
			if ld.Gen != 3 || len(ld.Discarded) != 3 || !reflect.DeepEqual(ld.Sites[0].Records, recs[:100]) {
				t.Fatalf("gen %d, %d discarded, %d records", ld.Gen, len(ld.Discarded), len(ld.Sites[0].Records))
			}
		})
	}
}

// TestOpenWritesNothing: loading and opening a store — v5 or legacy —
// leaves every file as it was.
func TestOpenWritesNothing(t *testing.T) {
	recs := testRecords(50)
	path := filepath.Join(t.TempDir(), "astrad.state")
	s, _ := open(t, nil, path, 3, "a")
	commitTo(t, s, "a", recs, 20)
	commitTo(t, s, "a", recs, 50)
	before := snapshotDir(t, filepath.Dir(path))
	for i := 0; i < 2; i++ {
		open(t, nil, path, 3, "a", "b")
		open(t, nil, path, 3, "renamed")
	}
	if after := snapshotDir(t, filepath.Dir(path)); !reflect.DeepEqual(before, after) {
		t.Fatalf("open changed the state directory")
	}
}

func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
