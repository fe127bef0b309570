package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/het"
	"repro/internal/mce"
	"repro/internal/statestore"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

const (
	testDedup   = 64
	testReorder = 5 * time.Minute
)

var (
	logOnce  sync.Once
	logBytes []byte
	logCEs   []mce.CERecord
	logErr   error
)

// testLog renders a small dataset's syslog once, with a far-future HET
// sentinel appended so the reorder window releases every CE before it —
// the expected engine contents are then exactly the batch scan's CEs.
func testLog(t testing.TB) ([]byte, []mce.CERecord) {
	t.Helper()
	logOnce.Do(func() {
		cfg := dataset.DefaultConfig(61)
		cfg.Nodes = 48
		ds, err := dataset.Build(context.Background(), cfg)
		if err != nil {
			logErr = err
			return
		}
		var buf bytes.Buffer
		if err := ds.WriteSyslog(&buf, 50); err != nil {
			logErr = err
			return
		}
		var maxT time.Time
		for _, r := range ds.CERecords {
			if r.Time.After(maxT) {
				maxT = r.Time
			}
		}
		sentinel := het.Record{
			Time:     maxT.Add(testReorder + time.Minute),
			Node:     ds.CERecords[0].Node,
			Type:     het.UncorrectableECC,
			Severity: het.SeverityNonRecoverable,
		}
		buf.WriteString(syslog.FormatHET(sentinel))
		buf.WriteByte('\n')
		logBytes = buf.Bytes()

		pol := dataset.IngestPolicy{DedupWindow: testDedup, ReorderWindow: testReorder, MaxMalformedFrac: -1}
		logCEs, _, _, _, logErr = dataset.ReadSyslogPolicy(bytes.NewReader(logBytes), pol)
	})
	if logErr != nil {
		t.Fatal(logErr)
	}
	return logBytes, logCEs
}

// syncBuf is a concurrency-safe buffer for the daemon's stderr.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRE = regexp.MustCompile(`msg=listening addr=([0-9.]+:[0-9]+)`)

// startDaemon launches run() in-process and waits for its listen address.
func startDaemon(t *testing.T, logPath, statePath string) (addr string, cancel context.CancelFunc, done chan int, errs *syncBuf) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	errs = &syncBuf{}
	done = make(chan int, 1)
	args := []string{
		"-log", logPath, "-state", statePath, "-listen", "127.0.0.1:0",
		"-dedup-window", fmt.Sprint(testDedup), "-reorder-window", testReorder.String(),
		"-poll", "1ms", "-checkpoint-every", "100ms",
		"-dimms", fmt.Sprint(48 * topology.SlotsPerNode),
	}
	go func() { done <- run(ctx, args, io.Discard, errs) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(errs.String()); m != nil {
			return m[1], cancelCtx, done, errs
		}
		if time.Now().After(deadline) {
			cancelCtx()
			t.Fatalf("daemon never listened; stderr:\n%s", errs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

func httpGetJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// waitForRecords polls /v1/breakdown until the engine reports want
// records.
func waitForRecords(t *testing.T, addr string, want int) stream.Summary {
	t.Helper()
	// Generous: multi-site ingest under -race on a small box is easily
	// 10-20x slower than native (a single-core runner has been measured
	// needing ~150s); polling returns the moment the count is reached,
	// so a passing run never waits this long.
	deadline := time.Now().Add(300 * time.Second)
	var sum stream.Summary
	for {
		httpGetJSON(t, "http://"+addr+"/v1/breakdown", &sum)
		if sum.Records >= want {
			return sum
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at %d of %d records", sum.Records, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonKillRestartDifferential is the acceptance test: kill the
// daemon mid-stream, append more log, restart it over the same state
// file, and the final fault population must be exactly what the batch
// pipeline computes over the whole log — nothing lost, nothing
// duplicated, reorder buffer included.
func TestDaemonKillRestartDifferential(t *testing.T) {
	full, ces := testLog(t)
	wantFaults := mustCluster(t, ces)
	wantBreak := core.BreakdownByMode(ces, wantFaults)

	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")

	// Phase 1: daemon over roughly the first half, cut at a line boundary.
	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs := startDaemon(t, logPath, statePath)
	var h struct {
		Records int `json:"records"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Records == 0 {
		if code := httpGetJSON(t, "http://"+addr+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("no records ingested in phase 1")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // SIGTERM equivalent: context cancellation
	if code := <-done; code != 0 {
		t.Fatalf("phase 1 exit = %d; stderr:\n%s", code, errs.String())
	}
	if !strings.Contains(errs.String(), "msg=checkpoint") {
		t.Fatalf("phase 1 never checkpointed; stderr:\n%s", errs.String())
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no state file after shutdown: %v", err)
	}

	// Append the rest and restart over the same state.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addr, cancel, done, errs = startDaemon(t, logPath, statePath)
	defer func() {
		cancel()
		<-done
	}()
	sum := waitForRecords(t, addr, len(ces))
	if sum.Records != len(ces) {
		t.Fatalf("records = %d, want %d (lost or duplicated input)", sum.Records, len(ces))
	}
	if sum.Faults != len(wantFaults) {
		t.Fatalf("faults = %d, want %d", sum.Faults, len(wantFaults))
	}
	if sum.FaultsByMode != wantBreak.FaultsByMode {
		t.Fatalf("FaultsByMode = %v, want %v", sum.FaultsByMode, wantBreak.FaultsByMode)
	}
	if sum.ErrorsByMode != wantBreak.ErrorsByMode {
		t.Fatalf("ErrorsByMode = %v, want %v", sum.ErrorsByMode, wantBreak.ErrorsByMode)
	}
	var faults struct {
		Count int `json:"count"`
	}
	httpGetJSON(t, "http://"+addr+"/v1/faults", &faults)
	if faults.Count != len(wantFaults) {
		t.Fatalf("/v1/faults count = %d, want %d", faults.Count, len(wantFaults))
	}
	var fit struct {
		Overall core.FaultRates `json:"overall"`
	}
	httpGetJSON(t, "http://"+addr+"/v1/fit", &fit)
	if fit.Overall.Degraded {
		t.Fatal("overall FIT degraded after full ingest")
	}
}

func mustCluster(t *testing.T, ces []mce.CERecord) []core.Fault {
	t.Helper()
	faults, err := core.Cluster(context.Background(), ces, core.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	return faults
}

// TestDaemonSustainedIngest checks /healthz and /metrics answer while the
// log is growing under the scanner.
func TestDaemonSustainedIngest(t *testing.T) {
	full, _ := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, cancel, done, errs := startDaemon(t, logPath, filepath.Join(dir, "state"))
	defer func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("exit = %d; stderr:\n%s", code, errs.String())
		}
	}()

	// Append in slices while hammering the endpoints.
	step := len(full) / 20
	for off := 0; off < len(full); off += step {
		end := off + step
		if end > len(full) {
			end = len(full)
		}
		f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[off:end]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if code := httpGetJSON(t, "http://"+addr+"/healthz", nil); code != http.StatusOK {
			t.Fatalf("healthz = %d during ingest", code)
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics = %d during ingest", resp.StatusCode)
		}
		if !bytes.Contains(body, []byte("astrad_stream_records_total")) {
			t.Fatal("metrics exposition missing engine series")
		}
	}
}

// TestStateRoundTrip pins the single-site legacy formats: a v2 file
// loads as site "default" with its checkpoint, shed count and records
// exact, upgrades to v5 without change, and rejects corruption; a v1
// file (no shed line) still loads with shed 0.
func TestStateRoundTrip(t *testing.T) {
	_, ces := testLog(t)
	cp := fixtureCheckpoint(t)
	data := fixture(t, "v2.state")

	snaps, err := decodeState(t, data)
	if err != nil {
		t.Fatal(err)
	}
	want := []statestore.Snapshot{{ID: "default", Checkpoint: cp, Shed: 7, Records: ces[:10]}}
	sameSnapshots(t, snaps, want)
	sameSnapshots(t, upgradeRoundTrip(t, data, []string{"default"}), want)

	for name, corrupt := range map[string][]byte{
		"empty":     nil,
		"truncated": data[:len(data)-3],
		"header":    []byte("nope\n"),
		"shed":      bytes.Replace(data, []byte("\nshed 7\n"), []byte("\nshed x\n"), 1),
	} {
		if _, err := decodeState(t, corrupt); err == nil {
			t.Errorf("%s: corrupted state accepted", name)
		}
	}

	// A v1 state file (no shed line) must still load, with shed = 0: a
	// daemon upgraded in place keeps its checkpoint.
	v1, err := decodeState(t, fixture(t, "v1.state"))
	if err != nil {
		t.Fatalf("v1 state rejected: %v", err)
	}
	want[0].Shed = 0
	sameSnapshots(t, v1, want)
}

// TestDaemonSIGTERMBinary is the end-to-end shutdown test against the
// real binary: SIGTERM mid-serve must drain, checkpoint, and exit 0.
func TestDaemonSIGTERMBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the astrad binary")
	}
	full, _ := testLog(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "astrad")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logPath := filepath.Join(dir, "syslog.log")
	if err := os.WriteFile(logPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "astrad.state")

	cmd := exec.Command(bin,
		"-log", logPath, "-state", statePath, "-listen", "127.0.0.1:0",
		"-poll", "1ms", "-checkpoint-every", "100ms")
	errs := &syncBuf{}
	cmd.Stderr = errs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	deadline := time.Now().Add(20 * time.Second)
	for addr == "" {
		if m := addrRE.FindStringSubmatch(errs.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := httpGetJSON(t, "http://"+addr+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, errs.String())
	}
	out := errs.String()
	if !strings.Contains(out, "msg=\"shutting down\"") || !strings.Contains(out, "msg=stopped") {
		t.Fatalf("shutdown not logged; stderr:\n%s", out)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("no state file after SIGTERM: %v", err)
	}
}
