package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mce"
	"repro/internal/syslog"
)

const (
	// genSeed and genNodes are the generated population: the seed-1,
	// 1024-node system, whose log holds ~1.23M lines with the
	// heavy-tailed whale nodes the paper reports. The population is the
	// same for every workload seed. Across generator seeds the whales
	// make the population's size vary about twofold, and astragen and
	// astrareport (which rebuilds the synthetic study from -seed) scale
	// with it, which would swamp any timing.
	genSeed  = 1
	genNodes = 1024
	// inputLines fixes the input every workload runs on: a window of
	// this many consecutive lines of the generated log, starting at a
	// line the workload seed picks.
	inputLines = 1_100_000

	// astrad's tolerance defaults (-dedup-window, -reorder-window): the
	// reference scanner runs at the daemon's settings so its record
	// counts are what the daemon must show.
	astradDedup   = 64
	astradReorder = 5 * time.Minute
)

// input is one workload input: a window of the log astragen wrote.
type input struct {
	path  string // the window on disk
	data  []byte // the window in memory
	lines int
	first int // line of the generated log the window starts at
	// before and within count the CE, DUE and HET lines preceding the
	// window and inside it.
	before, within [4]int
	// lineEnd[i] is the byte offset in data just past line i.
	lineEnd []int
}

// generate runs astragen into dir and returns its wall time. The timed
// span is exec to exit.
func (b *bench) generate(dir string) (time.Duration, error) {
	cmd := b.command("astragen",
		"-out", dir, "-seed", strconv.Itoa(genSeed), "-nodes", strconv.Itoa(genNodes))
	var errBuf bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &errBuf
	start := time.Now()
	err := cmd.Run()
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("astragen: %v: %s", err, errBuf.String())
	}
	return took, nil
}

// prepareInput cuts the input window from the generated log: it starts
// at a line drawn from the workload seed, so the same seed gives the same
// input. With reps > 0 it runs astragen that many times and returns each
// wall time; with reps == 0 it takes the log from the population cache.
func (b *bench) prepareInput(reps int) (*input, []time.Duration, error) {
	var times []time.Duration
	var raw []byte
	var err error
	if reps == 0 {
		raw, err = b.cachedPopulation()
	}
	for i := 0; i < reps && err == nil; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("gen%d", i))
		var took time.Duration
		if took, err = b.generate(dir); err != nil {
			break
		}
		times = append(times, took)
		if i == reps-1 {
			raw, err = os.ReadFile(filepath.Join(dir, "astra-syslog.log"))
		}
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	total := bytes.Count(raw, []byte{'\n'})
	if total < inputLines {
		return nil, nil, fmt.Errorf("generated log has %d lines, want at least %d", total, inputLines)
	}
	in := &input{lines: inputLines, first: rand.New(rand.NewSource(int64(b.seed))).Intn(total - inputLines + 1)}
	start := 0
	for n := 0; n < in.first; n++ {
		end := start + bytes.IndexByte(raw[start:], '\n') + 1
		in.before[lineKind(raw[start:end])]++
		start = end
	}
	in.lineEnd = make([]int, 0, inputLines)
	for end := start; len(in.lineEnd) < inputLines; {
		next := end + bytes.IndexByte(raw[end:], '\n') + 1
		in.within[lineKind(raw[end:next])]++
		end = next
		in.lineEnd = append(in.lineEnd, end-start)
	}
	// Copy the window so the rest of the log can be collected.
	in.data = append([]byte(nil), raw[start:start+in.lineEnd[inputLines-1]]...)
	in.path = filepath.Join(b.work, "input.log")
	if err := writeSynced(in.path, in.data); err != nil {
		return nil, nil, err
	}
	return in, times, nil
}

// cachedPopulation returns the generated log, running astragen only the
// first time in a checkout. The population does not depend on the
// workload seed, so every run of the same astragen build shares it; the
// cache is keyed by a digest of the astragen binary.
func (b *bench) cachedPopulation() ([]byte, error) {
	bin, err := os.ReadFile(filepath.Join(b.bin, "astragen"))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(filepath.Dir(b.bin), "population-"+hex.EncodeToString(sum[:8]), "astra-syslog.log")
	if raw, err := os.ReadFile(path); err == nil {
		return raw, nil
	}
	dir := filepath.Join(b.work, "gen")
	if _, err := b.generate(dir); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "astra-syslog.log"))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := writeSynced(tmp, raw); err != nil {
		return nil, err
	}
	return raw, os.Rename(tmp, path)
}

// writeSynced writes a file and flushes it to disk, so that writing back
// a large input does not compete with the timed phase that follows.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Line kinds, told apart by their fixed wire markers rather than by the
// parser under test.
const (
	kindCE = iota
	kindDUE
	kindHET
	kindOther
)

func lineKind(line []byte) int {
	switch {
	case bytes.Contains(line, []byte(" EDAC tx2_mc: CE ")):
		return kindCE
	case bytes.Contains(line, []byte("] DUE ")):
		return kindDUE
	case bytes.Contains(line, []byte(" HET: ")):
		return kindHET
	}
	return kindOther
}

// offsetAfter is the byte offset just past the first n lines.
func (in *input) offsetAfter(n int) int {
	if n == 0 {
		return 0
	}
	return in.lineEnd[n-1]
}

// reference is what astrad must show over prefixes of the input: the
// records a syslog.Scanner at the daemon's settings releases, ended as a
// stopped tail (records still held in the reorder window are not
// flushed, exactly as a live tail holds them).
type reference struct {
	// released[k] is the record count visible once the input up to
	// bounds[k] has been consumed.
	released []int
	// records are the CE records released over the whole input.
	records []mce.CERecord
	stats   syslog.ScanStats
}

// errStopped ends the reference scan the way a cancelled tail does: a
// read error, not EOF, so the scanner does not flush its reorder heap.
var errStopped = errors.New("reference tail stopped")

// boundaryReader serves data and reports when the consumer asks for
// bytes past each boundary. Read never crosses a boundary, and the
// scanner reads only after it has handed out every record its buffered
// lines release, so the count taken at that moment is exactly what a
// tail stopped at the boundary would have delivered.
type boundaryReader struct {
	data   []byte
	pos    int
	bounds []int
	next   int
	at     func(k int)
}

func (r *boundaryReader) Read(p []byte) (int, error) {
	for r.next < len(r.bounds) && r.pos >= r.bounds[r.next] {
		r.at(r.next)
		r.next++
	}
	if r.pos >= len(r.data) {
		return 0, errStopped
	}
	limit := len(r.data)
	if r.next < len(r.bounds) {
		limit = r.bounds[r.next]
	}
	n := copy(p, r.data[r.pos:limit])
	r.pos += n
	return n, nil
}

// scanReference runs the reference scanner over the input, recording
// the released CE count at each boundary (ascending byte offsets; the
// end of the input is always the last boundary).
func scanReference(in *input, bounds []int) (*reference, error) {
	if len(bounds) == 0 || bounds[len(bounds)-1] != len(in.data) {
		bounds = append(bounds, len(in.data))
	}
	ref := &reference{released: make([]int, len(bounds))}
	br := &boundaryReader{data: in.data, bounds: bounds}
	br.at = func(k int) { ref.released[k] = len(ref.records) }
	sc := syslog.NewScannerConfig(br, syslog.ScanConfig{DedupWindow: astradDedup, ReorderWindow: astradReorder})
	for sc.Scan() {
		if rec := sc.Record(); rec.Kind == syslog.KindCE {
			ref.records = append(ref.records, rec.CE)
		}
	}
	if err := sc.Err(); !errors.Is(err, errStopped) {
		return nil, fmt.Errorf("reference scan: %v", err)
	}
	for br.next < len(bounds) {
		ref.released[br.next] = len(ref.records)
		br.next++
	}
	ref.stats = sc.Stats()
	return ref, nil
}

// batchAnswer is the batch pipeline's answer over the reference records:
// core.Cluster and its mode breakdown.
type batchAnswer struct {
	records []mce.CERecord
	faults  []core.Fault
	modes   core.ModeBreakdown
}

func newBatchAnswer(recs []mce.CERecord) (*batchAnswer, error) {
	faults, err := core.Cluster(context.Background(), recs, core.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	return &batchAnswer{records: recs, faults: faults, modes: core.BreakdownByMode(recs, faults)}, nil
}
