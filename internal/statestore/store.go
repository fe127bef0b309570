// Package statestore owns astrad's durable state: the v5 layout of
// immutable columnar record segments beside the state path plus a small
// sealed head committed through an atomicio.Generations ladder.
//
// A checkpoint costs O(records since the last commit), not O(history).
// The capture side freezes ingest only long enough to copy the records
// admitted past the site's committed watermark (Watermark); Commit then
// encodes that delta as one new segment (internal/colfmt, CE columns
// only), compacts, and commits a head naming, per site, the scanner
// checkpoint, the shed count, the first-alarm ledger, and the ordered
// segment list with each segment's record count and CRC32.
//
// Invariants:
//   - The concatenated segments of a committed head are exactly the
//     records the site had admitted at the captured instant, in order.
//   - A delta is never lost: the watermark moves only when a head
//     commits, so a capture skipped or failed is re-captured from the
//     last committed watermark next time.
//   - Compaction merges a site's two newest segments while the newer
//     holds at least as many records as the older, keeping O(log
//     history) segments per site.
//   - A segment is deleted only when no head on the ladder references it;
//     a segment written by a commit that never landed is an orphan and
//     is swept by the next successful commit.
//   - Loading writes nothing. A head without a valid seal is rejected,
//     and a missing or CRC-failing segment discards only the generations
//     that reference it.
package statestore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/atomicio"
	"repro/internal/colfmt"
	"repro/internal/core"
	"repro/internal/mce"
	"repro/internal/syslog"
)

// Magic heads every v5 state head.
const Magic = "astrad-state v5"

// segmentTag joins the state file's base name and a segment's sequence
// number: segments of "astrad.state" are "astrad.state.seg-<16 hex>".
const segmentTag = ".seg-"

// Alarm is one first-alarm ledger entry: when a bank first scored at or
// above the alarm threshold (wall clock, UnixNano).
type Alarm struct {
	Key core.BankKey
	At  int64
}

// Segment names one immutable record segment and what the head expects
// of it.
type Segment struct {
	Name  string
	Count int
	CRC   uint32
}

// Site is one site's entry in a head.
type Site struct {
	ID         string
	Checkpoint syslog.Checkpoint
	Shed       uint64
	Segments   []Segment
	Alarms     []Alarm
}

// records is the number of records the site's segments hold.
func (s *Site) records() int {
	n := 0
	for _, g := range s.Segments {
		n += g.Count
	}
	return n
}

// Snapshot is one site's restored durable state.
type Snapshot struct {
	ID         string
	Checkpoint syslog.Checkpoint
	Shed       uint64
	Records    []mce.CERecord
	Alarms     []Alarm
}

// Loaded is the outcome of a ladder walk.
type Loaded struct {
	// Sites is the restored generation's per-site state.
	Sites []Snapshot
	// Gen is the rung restored (0 = the primary), -1 when nothing was.
	Gen int
	// Discarded lists the newer rungs rejected on the way.
	Discarded []atomicio.Discarded
	// Legacy is true when the restored rung is a v1–v4 text file.
	Legacy bool
	// Dropped holds the state of sites Open was not asked for.
	Dropped []Snapshot

	heads []Site // the restored head's entries (nil for legacy)
}

// Load walks the generation ladder at path newest-first and restores the
// first generation whose head verifies and whose segments are all present
// with the CRC and record count the head names; v1–v4 text generations
// load too. Damaged generations land in Discarded. A ladder with nothing
// valid yields Gen -1 and no sites: a cold start, not an error.
func Load(fsys atomicio.FS, path string, keep int) (Loaded, error) {
	if fsys == nil {
		fsys = atomicio.OS
	}
	out := Loaded{Gen: -1}
	g := atomicio.Generations{FS: fsys, Path: path, Keep: keep}
	_, gen, discarded, err := g.Load(func(data []byte) error {
		var derr error
		out.Sites, out.heads, derr = decodeGeneration(fsys, filepath.Dir(path), data)
		return derr
	})
	out.Discarded = discarded
	if err != nil {
		return Loaded{Gen: -1, Discarded: discarded}, err
	}
	if out.Gen = gen; gen < 0 {
		out.Sites, out.heads = nil, nil
	}
	out.Legacy = gen >= 0 && out.heads == nil
	return out, nil
}

// ReadHead reads and verifies one head file without touching its
// segments.
func ReadHead(fsys atomicio.FS, path string) ([]Site, error) {
	if fsys == nil {
		fsys = atomicio.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeHead(data)
}

// SegmentPath is where a head beside statePath keeps segment name.
func SegmentPath(statePath, name string) string {
	return filepath.Join(filepath.Dir(statePath), name)
}

// decodeGeneration decodes one ladder rung: a v5 head plus its segments,
// or a legacy text file.
func decodeGeneration(fsys atomicio.FS, dir string, data []byte) ([]Snapshot, []Site, error) {
	if !bytes.HasPrefix(data, []byte(Magic+"\n")) {
		snaps, err := loadLegacy(data)
		return snaps, nil, err
	}
	heads, err := decodeHead(data)
	if err != nil {
		return nil, nil, err
	}
	snaps := make([]Snapshot, len(heads))
	for i, h := range heads {
		recs, err := readSegments(fsys, dir, h.Segments, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("statestore: site %s: %w", h.ID, err)
		}
		snaps[i] = Snapshot{ID: h.ID, Checkpoint: h.Checkpoint, Shed: h.Shed, Records: recs, Alarms: h.Alarms}
	}
	return snaps, heads, nil
}

// readSegments reads, verifies and concatenates segs in order. cache
// supplies records of segments this process has in memory. Every file is
// read and CRC-checked before any is decoded, so a generation with one
// damaged segment is rejected without decoding the others, and the
// records decode straight into one slice.
func readSegments(fsys atomicio.FS, dir string, segs []Segment, cache map[string][]mce.CERecord) ([]mce.CERecord, error) {
	files := make([][]byte, len(segs))
	total := 0
	for i, g := range segs {
		total += g.Count
		if _, ok := cache[g.Name]; ok {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, g.Name))
		if err != nil {
			return nil, err
		}
		if err := verifySegment(data, g); err != nil {
			return nil, err
		}
		files[i] = data
	}
	out := make([]mce.CERecord, 0, total)
	for i, g := range segs {
		if recs, ok := cache[g.Name]; ok {
			out = append(out, recs...)
			continue
		}
		var err error
		if out, err = appendSegment(out, files[i], g); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verifySegment checks a segment file against its head entry: its CRC,
// and a record count the file is large enough to hold (every record
// costs several bytes), so a count cannot drive an allocation the data
// does not back.
func verifySegment(data []byte, g Segment) error {
	if got := crc32.ChecksumIEEE(data); got != g.CRC {
		return fmt.Errorf("segment %s: crc %08x, head says %08x", g.Name, got, g.CRC)
	}
	if g.Count > len(data) {
		return fmt.Errorf("segment %s: %d records claimed in %d bytes", g.Name, g.Count, len(data))
	}
	return nil
}

// appendSegment decodes a verified segment file onto dst and checks it
// holds exactly the CE records its head entry counts.
func appendSegment(dst []mce.CERecord, data []byte, g Segment) ([]mce.CERecord, error) {
	out, err := colfmt.AppendCEs(dst, data)
	if err != nil {
		return dst, fmt.Errorf("segment %s: %w", g.Name, err)
	}
	if n := len(out) - len(dst); n != g.Count {
		return dst, fmt.Errorf("segment %s: %d records, head says %d", g.Name, n, g.Count)
	}
	return out, nil
}

// encodeSegment renders records as a segment file.
func encodeSegment(recs []mce.CERecord) ([]byte, error) {
	var b bytes.Buffer
	if err := colfmt.Write(&b, colfmt.Records{CEs: recs}); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Watermark is what a capture needs from a site's last committed head.
type Watermark struct {
	// Records is how many records the committed segments hold; a capture
	// sends the records admitted after them.
	Records int
	// Epoch identifies the site's pipeline incarnation: Restore and Reset
	// move it, and Commit drops deltas captured under an older one.
	Epoch uint64
	// Fence is the caller's value from the last committed delta (astrad:
	// its queue's eviction count). A capture seeing it moved knows queued
	// records it committed may never reach the engine, and sends a full
	// delta (Base 0) instead.
	Fence uint64

	segments int // segments the committed head lists
}

// Delta is one site's capture: the records admitted past Base, and the
// site's scanner checkpoint, shed count and ledger at the same instant.
type Delta struct {
	Site  string
	Epoch uint64
	// Base is the watermark the records extend: Records[i] is the site's
	// record Base+i. Base 0 replaces every committed segment.
	Base       int
	Fence      uint64
	Checkpoint syslog.Checkpoint
	Shed       uint64
	Alarms     []Alarm
	Records    []mce.CERecord
}

// CommitInfo describes one committed head.
type CommitInfo struct {
	// Bytes is everything written: new segments plus the head.
	Bytes int64
	// SweepErr reports a failure deleting unreferenced segments; the
	// commit itself succeeded and the next one retries the sweep.
	SweepErr error
}

// siteState is one configured site's committed entry.
type siteState struct {
	id        string
	committed Site // guarded by Store.mu
	// legacy holds records restored from a v1–v4 generation until a
	// commit writes them as the site's first segment.
	legacy []mce.CERecord
	mark   atomic.Pointer[Watermark]
}

// Store is the writer side of one state path. Commit, Restore and Reset
// serialize against each other; Watermark, Segments and Written are
// lock-free, so a capture never waits on a write in flight.
type Store struct {
	fs     atomicio.FS
	gens   atomicio.Generations
	dir    string
	prefix string

	mu      sync.Mutex
	sites   []*siteState
	nextSeq uint64

	written atomic.Uint64
}

// Open loads the ladder at path (see Load) and returns a Store for the
// sites ids, each primed with its restored state. Sites match by id; as
// a migration path a lone stored site restores a lone configured site
// whatever its id. Loaded.Sites is aligned with ids (an empty snapshot
// for a site the state does not hold). Open writes nothing.
func Open(fsys atomicio.FS, path string, keep int, ids []string) (*Store, Loaded, error) {
	if fsys == nil {
		fsys = atomicio.OS
	}
	ld, err := Load(fsys, path, keep)
	if err != nil {
		return nil, ld, err
	}
	s := &Store{
		fs:     fsys,
		gens:   atomicio.Generations{FS: fsys, Path: path, Keep: keep},
		dir:    filepath.Dir(path),
		prefix: filepath.Base(path) + segmentTag,
	}
	if s.nextSeq, err = s.scanSeq(); err != nil {
		return nil, ld, err
	}

	matched := make([]Snapshot, len(ids))
	used := make([]bool, len(ld.Sites))
	for i, id := range ids {
		j := slices.IndexFunc(ld.Sites, func(sn Snapshot) bool { return sn.ID == id })
		if j < 0 && len(ids) == 1 && len(ld.Sites) == 1 {
			j = 0
		}
		st := &siteState{id: id, committed: Site{ID: id}}
		matched[i] = Snapshot{ID: id}
		if j >= 0 {
			used[j] = true
			sn := ld.Sites[j]
			matched[i] = sn
			matched[i].ID = id
			if ld.heads != nil {
				st.committed = ld.heads[j]
				st.committed.ID = id
			} else {
				st.committed = Site{ID: id, Checkpoint: sn.Checkpoint, Shed: sn.Shed, Alarms: sn.Alarms}
				st.legacy = sn.Records
			}
		}
		st.mark.Store(&Watermark{Records: st.committed.records(), segments: len(st.committed.Segments)})
		s.sites = append(s.sites, st)
	}
	for j, sn := range ld.Sites {
		if !used[j] {
			ld.Dropped = append(ld.Dropped, sn)
		}
	}
	ld.Sites = matched
	return s, ld, nil
}

// segmentNames lists every segment a head's sites reference.
func segmentNames(heads []Site) []string {
	var out []string
	for _, h := range heads {
		for _, g := range h.Segments {
			out = append(out, g.Name)
		}
	}
	return out
}

// rungRefs reads the segment names a ladder rung references. Only v5
// heads reference segments, so a legacy rung is recognized by its first
// line and never read whole, and a head that fails its seal protects
// nothing (it can never be restored). A rung that exists but cannot be
// read is an error: what it references is unknown.
func (s *Store) rungRefs(path string) ([]string, error) {
	f, err := s.fs.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	prefix := make([]byte, len(Magic)+1)
	_, err = io.ReadFull(f, prefix)
	f.Close()
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || string(prefix) != Magic+"\n" {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	heads, err := decodeHead(data)
	if err != nil {
		return nil, nil
	}
	return segmentNames(heads), nil
}

// scanSeq returns one past the highest segment sequence number in the
// directory, orphans included, so a new segment never reuses a name.
func (s *Store) scanSeq() (uint64, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	next := uint64(1)
	for _, e := range entries {
		if n, ok := s.segmentSeq(e.Name()); ok && n >= next {
			next = n + 1
		}
	}
	return next, nil
}

// segmentSeq parses the sequence number out of a segment name this store
// writes; any other file beside the state is not the store's to touch.
func (s *Store) segmentSeq(name string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, s.prefix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	return n, err == nil
}

func (s *Store) site(id string) (*siteState, error) {
	for _, st := range s.sites {
		if st.id == id {
			return st, nil
		}
	}
	return nil, fmt.Errorf("statestore: unknown site %q", id)
}

// Watermark returns the site's committed watermark (zero for an unknown
// site).
func (s *Store) Watermark(id string) Watermark {
	if st, err := s.site(id); err == nil {
		return *st.mark.Load()
	}
	return Watermark{}
}

// Segments returns how many segments the site's committed head lists.
func (s *Store) Segments(id string) int { return s.Watermark(id).segments }

// Written returns the bytes committed so far: segments plus heads.
func (s *Store) Written() uint64 { return s.written.Load() }

// Commit writes each delta's records as a new segment, compacts, and
// commits one head covering every site: sites without a delta keep their
// committed entry, except that a site still holding records restored
// from a legacy generation gets them written as one full segment. A
// delta that does not extend its site's committed records (a gap) is an
// error; one overlapping them (captured before the previous commit
// landed) is trimmed to its new tail. Nothing changes in memory unless
// the head commits.
func (s *Store) Commit(ctx context.Context, deltas ...Delta) (CommitInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var info CommitInfo
	next := make([]Site, len(s.sites))
	fences := make([]uint64, len(s.sites))
	touched := make([]bool, len(s.sites))
	for i, st := range s.sites {
		next[i] = st.committed
		fences[i] = st.mark.Load().Fence
	}
	cache := map[string][]mce.CERecord{}
	for _, d := range deltas {
		st, err := s.site(d.Site)
		if err != nil {
			return CommitInfo{}, err
		}
		if d.Epoch != st.mark.Load().Epoch {
			continue // captured by a superseded incarnation
		}
		i := slices.Index(s.sites, st)
		recs, segs := d.Records, []Segment(nil)
		if d.Base > 0 {
			have := next[i].records()
			if d.Base > have || have-d.Base > len(recs) {
				return CommitInfo{}, fmt.Errorf("statestore: site %s: delta [%d,%d) does not extend the %d committed records",
					d.Site, d.Base, d.Base+len(recs), have)
			}
			recs = recs[have-d.Base:]
			segs = slices.Clone(next[i].Segments)
		}
		if len(recs) > 0 {
			g, err := s.writeSegment(ctx, recs, &info)
			if err != nil {
				return CommitInfo{}, err
			}
			cache[g.Name] = recs
			segs = append(segs, g)
		}
		if segs, err = s.compact(ctx, segs, cache, &info); err != nil {
			return CommitInfo{}, err
		}
		next[i] = Site{ID: d.Site, Checkpoint: d.Checkpoint, Shed: d.Shed, Segments: segs, Alarms: d.Alarms}
		fences[i] = d.Fence
		touched[i] = true
	}
	for i, st := range s.sites {
		if st.legacy == nil || touched[i] {
			continue
		}
		next[i].Segments = nil
		if len(st.legacy) > 0 {
			g, err := s.writeSegment(ctx, st.legacy, &info)
			if err != nil {
				return CommitInfo{}, err
			}
			next[i].Segments = []Segment{g}
		}
		touched[i] = true
	}

	head, err := encodeHead(next)
	if err != nil {
		return CommitInfo{}, err
	}
	if _, err := s.gens.Write(ctx, func(w io.Writer) error {
		_, werr := w.Write(head)
		return werr
	}); err != nil {
		return CommitInfo{}, err
	}
	info.Bytes += int64(len(head))
	s.written.Add(uint64(len(head)))

	for i, st := range s.sites {
		st.committed = next[i]
		if touched[i] {
			st.legacy = nil
		}
		st.mark.Store(&Watermark{Records: next[i].records(), Epoch: st.mark.Load().Epoch, Fence: fences[i], segments: len(next[i].Segments)})
	}
	info.SweepErr = s.sweep()
	return info, nil
}

// writeSegment encodes records as a new segment file.
func (s *Store) writeSegment(ctx context.Context, recs []mce.CERecord, info *CommitInfo) (Segment, error) {
	data, err := encodeSegment(recs)
	if err != nil {
		return Segment{}, err
	}
	g := Segment{Name: fmt.Sprintf("%s%016x", s.prefix, s.nextSeq), Count: len(recs), CRC: crc32.ChecksumIEEE(data)}
	s.nextSeq++
	if _, err := atomicio.WriteFile(ctx, s.fs, filepath.Join(s.dir, g.Name), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return Segment{}, err
	}
	info.Bytes += int64(len(data))
	s.written.Add(uint64(len(data)))
	return g, nil
}

// compact merges the two newest segments while the newer holds at least
// as many records as the older.
func (s *Store) compact(ctx context.Context, segs []Segment, cache map[string][]mce.CERecord, info *CommitInfo) ([]Segment, error) {
	for n := len(segs); n >= 2 && segs[n-1].Count >= segs[n-2].Count; n = len(segs) {
		recs, err := readSegments(s.fs, s.dir, segs[n-2:], cache)
		if err != nil {
			return nil, err
		}
		g, err := s.writeSegment(ctx, recs, info)
		if err != nil {
			return nil, err
		}
		cache[g.Name] = recs
		segs = append(segs[:n-2], g)
	}
	return segs, nil
}

// sweep deletes every segment file no head on the ladder references,
// reading the heads back from disk: a rotation torn by a crash or a
// failed write leaves rungs the ladder's in-memory history could not
// predict, and a segment must outlive every head that names it.
func (s *Store) sweep() error {
	live := map[string]bool{}
	keep := s.gens.Keep
	if keep <= 0 {
		keep = atomicio.DefaultKeep
	}
	for n := 0; n < keep; n++ {
		names, err := s.rungRefs(s.gens.Gen(n))
		if err != nil {
			return err
		}
		for _, name := range names {
			live[name] = true
		}
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if _, ok := s.segmentSeq(e.Name()); ok && !live[e.Name()] {
			if err := s.fs.Remove(filepath.Join(s.dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}

// Restore starts a new incarnation of a site from its committed state:
// it moves the site's epoch (deltas captured before are dropped at
// commit) and returns the committed records, read back from the site's
// segments.
func (s *Store) Restore(id string) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.site(id)
	if err != nil {
		return Snapshot{}, err
	}
	s.bump(st)
	c := st.committed
	snap := Snapshot{ID: id, Checkpoint: c.Checkpoint, Shed: c.Shed, Alarms: c.Alarms, Records: st.legacy}
	if st.legacy == nil {
		if snap.Records, err = readSegments(s.fs, s.dir, c.Segments, nil); err != nil {
			return Snapshot{}, fmt.Errorf("statestore: site %s: %w", id, err)
		}
	}
	return snap, nil
}

// Reset starts a new incarnation of a site from nothing: the next commit
// records it empty unless a delta from the new incarnation arrives.
func (s *Store) Reset(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.site(id)
	if err != nil {
		return err
	}
	st.committed = Site{ID: id}
	st.legacy = nil
	s.bump(st)
	return nil
}

// bump moves a site to a new epoch with a fresh fence.
func (s *Store) bump(st *siteState) {
	st.mark.Store(&Watermark{Records: st.committed.records(), Epoch: st.mark.Load().Epoch + 1, segments: len(st.committed.Segments)})
}
