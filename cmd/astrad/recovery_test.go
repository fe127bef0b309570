package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/mce"
	"repro/internal/statestore"
	"repro/internal/topology"
)

// TestSealOpenState pins the checksum seal: a sealed legacy file loads,
// its unsealed body (written before sealing existed) still loads, and
// any single bit flip — in the body or the trailer — is detected. A v5
// head is sealed unconditionally: without its trailer, or with any bit
// flipped, it is rejected.
func TestSealOpenState(t *testing.T) {
	_, ces := testLog(t)
	sealed := fixture(t, "v2-sealed.state")
	i := bytes.LastIndexByte(sealed[:len(sealed)-1], '\n')
	data := sealed[:i+1]
	if !bytes.HasPrefix(sealed[i+1:], []byte("checksum crc32 ")) {
		t.Fatal("fixture is not sealed")
	}
	want := []statestore.Snapshot{{ID: "default", Shed: 3, Records: ces[:8]}}
	for name, img := range map[string][]byte{"sealed": sealed, "unsealed": data} {
		snaps, err := decodeState(t, img)
		if err != nil {
			t.Fatalf("%s image rejected: %v", name, err)
		}
		sameSnapshots(t, snaps, want)
	}
	// Any bit flip in a sealed image must be caught: the body flips fail
	// the checksum, trailer flips garble or mismatch the trailer itself.
	for _, off := range []int{0, len(data) / 2, len(data) - 1, len(sealed) - 3} {
		corrupt := append([]byte(nil), sealed...)
		corrupt[off] ^= 0x10
		if _, err := decodeState(t, corrupt); err == nil {
			t.Fatalf("bit flip at %d of %d undetected", off, len(sealed))
		}
	}

	// The same state as v5: the head is the sealed part.
	dir := t.TempDir()
	path := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := statestore.Open(atomicio.OS, path, 1, []string{"default"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	head := mustReadFile(t, path)
	if snaps, err := loadState(path); err != nil {
		t.Fatal(err)
	} else {
		sameSnapshots(t, snaps, want)
	}
	j := bytes.LastIndexByte(head[:len(head)-1], '\n')
	for name, img := range map[string][]byte{
		"unsealed":  head[:j+1],
		"flip-body": flipByte(head, len(head)/3),
		"flip-seal": flipByte(head, len(head)-3),
	} {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadState(path); err == nil {
			t.Fatalf("%s v5 head accepted", name)
		}
	}
}

func flipByte(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= 0x10
	return out
}

// TestParseSectionErrorsNameSiteAndOffset pins the diagnosability
// contract: a damaged section names the site it belongs to and the byte
// offset where parsing stopped.
func TestParseSectionErrorsNameSiteAndOffset(t *testing.T) {
	data := fixture(t, "v2.state")
	corrupt := bytes.Replace(data, []byte("\nshed 7\n"), []byte("\nsped 7\n"), 1)
	_, err := decodeState(t, corrupt)
	if err == nil {
		t.Fatal("corrupted shed header accepted")
	}
	if !strings.Contains(err.Error(), "site default") || !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("error does not name site and offset: %v", err)
	}

	v3 := fixture(t, "v3.state")
	// Damage west's records header only.
	i := bytes.Index(v3, []byte("site west\n"))
	if i < 0 {
		t.Fatal("no west section")
	}
	j := i + bytes.Index(v3[i:], []byte("\nrecords "))
	corrupt = append([]byte(nil), v3...)
	corrupt[j+1] = 'R'
	_, err = decodeState(t, corrupt)
	if err == nil {
		t.Fatal("corrupted v3 records header accepted")
	}
	if !strings.Contains(err.Error(), "site west") || !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("v3 error does not name site and offset: %v", err)
	}
}

// startDaemonKeep is startDaemonArgs with a short checkpoint cadence and
// a generation ladder.
func startDaemonKeep(t *testing.T, logPath, statePath string, extra ...string) (string, context.CancelFunc, chan int, *syncBuf) {
	t.Helper()
	return startDaemonArgs(t, logPath, statePath,
		append([]string{"-state-keep", "3", "-checkpoint-every", "20ms"}, extra...)...)
}

// TestDaemonStateLadderRecovery is the generational-recovery acceptance
// test: a bit flip in the newest state generation must cost one
// checkpoint interval, not the daemon. Phase 1 runs long enough to lay
// down at least two generations; the newest is then bit-flipped, and the
// restarted daemon must fall back to the older generation, re-ingest the
// offset delta, and converge to the exact batch answer. A second restart
// with every generation corrupted must cold-start from the log — never
// exit — and still converge.
func TestDaemonStateLadderRecovery(t *testing.T) {
	full, ces := testLog(t)
	wantFaults := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, wantFaults)

	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 1: ingest the first half, wait for a periodic checkpoint (the
	// final shutdown write then shifts it to generation 1).
	addr, cancel, done, errs := startDaemonKeep(t, logPath, statePath)
	var h struct {
		Records int `json:"records"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Records == 0 || !strings.Contains(errs.String(), "msg=checkpoint") {
		if code := httpGetJSON(t, "http://"+addr+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint in phase 1; stderr:\n%s", errs.String())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 1 exit = %d; stderr:\n%s", code, errs.String())
	}
	if _, err := os.Stat(statePath + ".1"); err != nil {
		t.Fatalf("no generation 1 after two checkpoints: %v", err)
	}

	// Corrupt the newest generation and append the rest of the log.
	if _, _, err := iofault.FlipBit(statePath, 42); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: the daemon must discard generation 0, restore generation 1
	// and converge to the batch answer.
	addr, cancel, done, errs = startDaemonKeep(t, logPath, statePath)
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) || sum.Faults != len(wantFaults) {
		t.Fatalf("phase 2: records=%d faults=%d, want %d/%d", sum.Records, sum.Faults, len(ces), len(wantFaults))
	}
	if sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("phase 2 breakdown diverges: %+v vs %+v", sum, wantBreak)
	}
	if !strings.Contains(errs.String(), "state generation discarded") ||
		!strings.Contains(errs.String(), "recovered from older state generation") {
		t.Fatalf("phase 2 did not report the ladder fallback; stderr:\n%s", errs.String())
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("astrad_state_generations_discarded_total 1")) {
		t.Fatalf("discard metric missing:\n%s", metrics)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 2 exit = %d; stderr:\n%s", code, errs.String())
	}

	// Phase 3: corrupt every generation. The daemon must cold-start from
	// the log — total state loss is an operational event, not an outage —
	// and still converge to the batch answer.
	gens, _ := filepath.Glob(statePath + "*")
	if len(gens) < 2 {
		t.Fatalf("expected a ladder, found %v", gens)
	}
	for i, g := range gens {
		if _, _, err := iofault.FlipBit(g, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	addr, cancel, done, errs = startDaemonKeep(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum = waitForRecords(t, addr, len(ces))
	if sum.Faults != len(wantFaults) || sum.FaultsByMode != wantBreak.FaultsByMode {
		t.Fatalf("cold start diverges: %+v", sum)
	}
	if !strings.Contains(errs.String(), "no state generation recoverable") {
		t.Fatalf("cold start not reported; stderr:\n%s", errs.String())
	}
}

// countMetric extracts one un-labelled metric value from /metrics.
func countMetric(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
				return v
			}
		}
	}
	return 0
}

// TestDaemonRotationLadderRecovery is the combined acceptance test: the
// live log is rotated away mid-tail, the daemon keeps ingesting the
// successor with checkpoint continuity, the newest state generation is
// then bit-flipped, and a restarted daemon must fall back one generation
// (whose offset is in successor-file coordinates) and converge to the
// exact batch answer over both files' records. The dataset is kept
// small (12 nodes) because every checkpoint capture snapshots the full
// record population: at testLog scale the 20ms cadence would spend more
// time capturing than ingesting under the race detector.
func TestDaemonRotationLadderRecovery(t *testing.T) {
	full, ces := buildSiteLog(t, 61, 12)
	wantFaults := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, wantFaults)

	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	addr, cancel, done, errs := startDaemonKeep(t, logPath, statePath)
	var h struct {
		Records int `json:"records"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Records == 0 {
		httpGetJSON(t, "http://"+addr+"/healthz", &h)
		if time.Now().After(deadline) {
			t.Fatal("no records before rotation")
		}
		time.Sleep(time.Millisecond)
	}

	// Rotate: rename the live log away, then create the successor. The
	// follower must notice the inode change and keep going. The successor
	// content arrives as a trickle of appends so the scanner keeps
	// yielding across many checkpoint intervals — by shutdown, every
	// generation on the ladder carries successor-file offsets.
	if err := os.Rename(logPath, logPath+".old"); err != nil {
		t.Fatal(err)
	}
	rest := full[cut:]
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(rest); {
		end := off + len(rest)/8
		if end >= len(rest) {
			end = len(rest)
		} else {
			end = off + bytes.LastIndexByte(rest[off:end], '\n') + 1
		}
		f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(rest[off:end]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		off = end
		time.Sleep(60 * time.Millisecond)
	}
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) {
		t.Fatalf("rotated tail lost records: %d of %d", sum.Records, len(ces))
	}
	if n := countMetric(t, addr, "astrad_log_rotations_total"); n != 1 {
		t.Fatalf("astrad_log_rotations_total = %g, want 1", n)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("rotation phase exit = %d; stderr:\n%s", code, errs.String())
	}

	// The final checkpoint's offset must be in successor coordinates: at
	// most the successor's size.
	snaps, err := loadState(statePath)
	if err != nil {
		t.Fatalf("state after rotation: %v", err)
	}
	if n := int64(len(full) - cut); len(snaps) != 1 || snaps[0].Checkpoint.Offset > n {
		t.Fatalf("final offset %d exceeds successor size %d", snaps[0].Checkpoint.Offset, n)
	}

	// Bit-flip the newest generation; recovery must fall back and still
	// reproduce the batch answer exactly.
	if _, _, err := iofault.FlipBit(statePath, 7); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs = startDaemonKeep(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum = waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) || sum.Faults != len(wantFaults) {
		t.Fatalf("post-rotation recovery: records=%d faults=%d, want %d/%d",
			sum.Records, sum.Faults, len(ces), len(wantFaults))
	}
	if sum.FaultsByMode != wantBreak.FaultsByMode || sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("post-rotation breakdown diverges: %+v vs %+v", sum, wantBreak)
	}
	if !strings.Contains(errs.String(), "state generation discarded") {
		t.Fatalf("fallback not reported; stderr:\n%s", errs.String())
	}
}

// poisonLog writes a log whose first line exceeds the follower's 1 MiB
// buffer cap — a deterministic, repeatable ingest fault.
func poisonLog(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 2<<20), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonSiteFaultIsolation is the fault-isolation acceptance test: a
// site whose log is unreadable exhausts its restart budget and is
// quarantined, its endpoints answer 503 with the supervision detail, and
// /healthz degrades — while the sibling site ingests to the exact batch
// answer and keeps serving 200s. SIGTERM while quarantined still writes
// a final checkpoint with both sites' sections, exits 0, and a restart
// over that state (log repaired) holds the differential.
func TestDaemonSiteFaultIsolation(t *testing.T) {
	logA, cesA := testLog(t)
	faultsA := mustCluster(t, cesA)

	dir := t.TempDir()
	pathA := filepath.Join(dir, "east.log")
	pathB := filepath.Join(dir, "west.log")
	statePath := filepath.Join(dir, "astrad.state")
	if err := os.WriteFile(pathA, logA, 0o644); err != nil {
		t.Fatal(err)
	}
	poisonLog(t, pathB)

	args := []string{
		"-site", "east=" + pathA, "-site", "west=" + pathB,
		"-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-poll", "1ms", "-checkpoint-every", "50ms", "-state-keep", "3",
		"-dimms", fmt.Sprint(48 * topology.SlotsPerNode),
		"-restart-backoff", "1ms", "-restart-backoff-max", "5ms", "-restart-budget", "2",
	}
	addr, cancel, done, errs := startDaemonCustom(t, args...)

	// West must quarantine: initial run + 2 restarts, all hitting the
	// oversized line, with ~1ms backoffs.
	type siteEntry struct {
		ID       string  `json:"id"`
		State    string  `json:"state"`
		Restarts uint64  `json:"restarts"`
		LastErr  string  `json:"lastError"`
		RetryIn  float64 `json:"retryInSeconds"`
	}
	var hz struct {
		Status string      `json:"status"`
		Sites  []siteEntry `json:"sites"`
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		httpGetJSON(t, "http://"+addr+"/healthz", &hz)
		west := siteEntry{}
		for _, s := range hz.Sites {
			if s.ID == "west" {
				west = s
			}
		}
		if west.State == "quarantined" {
			if hz.Status != "degraded" && hz.Status != "shedding" {
				t.Fatalf("healthz status = %q with a quarantined site", hz.Status)
			}
			if west.Restarts != 2 || !strings.Contains(west.LastErr, "unterminated line") {
				t.Fatalf("west health = %+v, want 2 restarts and the tail error", west)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("west never quarantined; healthz=%+v stderr:\n%s", hz, errs.String())
		}
		time.Sleep(time.Millisecond)
	}

	// East is untouched: it converges to its batch answer while west is
	// down, and its scoped endpoints keep serving.
	var east struct {
		Records int `json:"records"`
		Faults  int `json:"faults"`
	}
	deadline = time.Now().Add(300 * time.Second)
	for east.Records < len(cesA) {
		if code := httpGetJSON(t, "http://"+addr+"/v1/sites/east/breakdown", &east); code != http.StatusOK {
			t.Fatalf("east breakdown = %d during west quarantine", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("east stuck at %d of %d", east.Records, len(cesA))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if east.Faults != len(faultsA) {
		t.Fatalf("east faults = %d, want %d", east.Faults, len(faultsA))
	}

	// West's scoped endpoints answer 503 with the supervision detail.
	resp, err := http.Get("http://" + addr + "/v1/sites/west/faults")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("west faults = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("west 503 without Retry-After")
	}
	if !bytes.Contains(body, []byte("quarantined")) {
		t.Fatalf("west 503 body lacks state: %s", body)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`astrad_site_state{site="west"} 2`,
		`astrad_site_state{site="east"} 0`,
		`astrad_site_restarts_total{site="west"} 2`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// SIGTERM while west is quarantined: exit 0, final checkpoint with
	// both sections intact.
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("shutdown with quarantined site exit = %d; stderr:\n%s", code, errs.String())
	}
	snaps, err := loadState(statePath)
	if err != nil {
		t.Fatalf("state after quarantined shutdown: %v", err)
	}
	bySite := map[string]statestore.Snapshot{}
	for _, sn := range snaps {
		bySite[sn.ID] = sn
	}
	if len(bySite["east"].Records) == 0 {
		t.Fatal("east section lost its records")
	}
	if w, ok := bySite["west"]; !ok || len(w.Records) != 0 {
		t.Fatalf("west section = %+v, want present and empty", bySite["west"])
	}

	// Repair west's log and restart over the same state: the restart
	// differential holds for the healthy site.
	if err := os.WriteFile(pathB, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs = startDaemonCustom(t, args...)
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("restart exit = %d; stderr:\n%s", code, errs.String())
		}
	}()
	east.Records, east.Faults = 0, 0
	deadline = time.Now().Add(300 * time.Second)
	for east.Records < len(cesA) {
		httpGetJSON(t, "http://"+addr+"/v1/sites/east/breakdown", &east)
		if time.Now().After(deadline) {
			t.Fatalf("restarted east stuck at %d of %d", east.Records, len(cesA))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if east.Faults != len(faultsA) {
		t.Fatalf("restarted east faults = %d, want %d", east.Faults, len(faultsA))
	}
}

// TestDaemonSiteRecoversWhenLogAppears pins two contracts at once: a
// missing log at startup is a restartable fault, not a fatal one (the
// old daemon exited 1), and a later restart under the supervisor
// actually succeeds once the fault clears.
func TestDaemonSiteRecoversWhenLogAppears(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "late.log")

	addr, cancel, done, errs := startDaemonArgs(t, logPath, "",
		"-restart-backoff", "1ms", "-restart-backoff-max", "10ms", "-restart-budget=-1")
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d; stderr:\n%s", code, errs.String())
		}
	}()

	var hz struct {
		Status string `json:"status"`
		Sites  []struct {
			State string `json:"state"`
		} `json:"sites"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		httpGetJSON(t, "http://"+addr+"/healthz", &hz)
		if hz.Status == "degraded" && len(hz.Sites) == 1 && hz.Sites[0].State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("missing log never degraded healthz: %+v", hz)
		}
		time.Sleep(time.Millisecond)
	}

	// The log appears; the supervisor's next restart must pick it up.
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Records int `json:"records"`
	}
	deadline = time.Now().Add(300 * time.Second)
	for h.Records == 0 {
		httpGetJSON(t, "http://"+addr+"/healthz", &h)
		if time.Now().After(deadline) {
			t.Fatalf("site never recovered; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepTempsOnStartup: an orphaned atomic-write temp file beside the
// state path is removed during startup.
func TestSweepTempsOnStartup(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".tmp-orphan123")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !atomicio.IsTemp(filepath.Base(orphan)) {
		t.Fatalf("%s not recognized as a temp file", orphan)
	}
	_, cancel, done, errs := startDaemon(t, logPath, filepath.Join(dir, "astrad.state"))
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		cancel()
		t.Fatalf("orphaned temp file survived startup: %v", err)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit = %d; stderr:\n%s", code, errs.String())
	}
}

// FuzzLoadStateLadder: whatever bytes sit in the newest head or in any
// segment, the ladder loader must never error or panic, and must never
// restore wrong records — it either accepts the generation the bytes
// still describe exactly, or falls back to an older one. The ladder is
// three v5 commits over testLog's first 45 records, with segments
// shared across generations and one compaction: gen 2 = [0,20),
// gen 1 = [0,20)+[20,30), gen 0 = one merged [0,45).
func FuzzLoadStateLadder(f *testing.F) {
	_, ces := testLog(f)
	tmpl := f.TempDir()
	statePath := filepath.Join(tmpl, "astrad.state")
	st, _, err := statestore.Open(atomicio.OS, statePath, 3, []string{"default"})
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range [][2]int{{0, 20}, {20, 30}, {30, 45}} {
		if _, err := st.Commit(context.Background(), statestore.Delta{
			Site: "default", Base: cut[0], Records: ces[cut[0]:cut[1]],
		}); err != nil {
			f.Fatal(err)
		}
	}
	want := [][]mce.CERecord{ces[:45], ces[:30], ces[:20]}
	files, err := os.ReadDir(tmpl)
	if err != nil {
		f.Fatal(err)
	}
	var segs []string
	for _, e := range files {
		if strings.Contains(e.Name(), ".seg-") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 3 {
		f.Fatalf("template holds %d segments, want 3", len(segs))
	}
	head := mustReadFile(f, statePath)
	seg0 := mustReadFile(f, filepath.Join(tmpl, segs[0]))

	f.Add([]byte(""), []byte(nil), uint8(0))
	f.Add(head, []byte(nil), uint8(0))
	f.Add(fixture(f, "v2-sealed.state"), []byte(nil), uint8(0))
	f.Add([]byte("astrad-state v5\n"), []byte(nil), uint8(1))
	f.Add(flipByte(head, len(head)/2), []byte(nil), uint8(0))
	f.Add(head, flipByte(seg0, len(seg0)/2), uint8(0))
	f.Add(head, seg0[:len(seg0)/2], uint8(1))
	f.Add(head, seg0, uint8(2))
	f.Fuzz(func(t *testing.T, gen0, seg []byte, which uint8) {
		dir := t.TempDir()
		for _, e := range files {
			data := mustReadFile(t, filepath.Join(tmpl, e.Name()))
			if e.Name() == segs[int(which)%len(segs)] && seg != nil {
				data = seg
			}
			if e.Name() == "astrad.state" {
				data = gen0
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ld, err := statestore.Load(atomicio.OS, filepath.Join(dir, "astrad.state"), 3)
		if err != nil {
			t.Fatalf("ladder load errored on fuzzed state: %v", err)
		}
		switch {
		case ld.Gen < 0:
			// Every generation lost a segment or its head: a cold start.
		case ld.Gen == 0 && !bytes.Equal(gen0, head):
			// The fuzzer found other head bytes that decode; fine.
		default:
			if len(ld.Sites) != 1 || !reflect.DeepEqual(ld.Sites[0].Records, want[ld.Gen]) {
				t.Fatalf("generation %d restored wrong records", ld.Gen)
			}
		}
	})
}
