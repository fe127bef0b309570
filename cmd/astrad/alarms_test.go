package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/statestore"
	"repro/internal/stream"
)

// TestStateV4RoundTrip pins the v4 legacy format: per-site alarm
// ledgers load exactly and survive the upgrade to v5, the sealed image
// loads too, corruption in the alarms subsection is rejected, and v3
// files (no ledgers) load with empty ledgers.
func TestStateV4RoundTrip(t *testing.T) {
	_, ces := testLog(t)
	cp := fixtureCheckpoint(t)
	alarms := []statestore.Alarm{
		{Key: core.RecordBankKey(&ces[0]), At: 1700000000000000001},
		{Key: core.RecordBankKey(&ces[3]), At: 1700000000000000002},
	}
	want := []statestore.Snapshot{
		{ID: "east", Checkpoint: cp, Shed: 3, Records: ces[:10], Alarms: alarms},
		{ID: "west", Records: ces[10:14]}, // empty ledger
	}
	data := fixture(t, "v4.state")
	got, err := decodeState(t, data)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshots(t, got, want)
	sameSnapshots(t, upgradeRoundTrip(t, data, []string{"east", "west"}), want)

	// The sealed image decodes too.
	if snaps, err := decodeState(t, fixture(t, "v4-sealed.state")); err != nil {
		t.Fatalf("sealed v4 decode: %v", err)
	} else {
		sameSnapshots(t, snaps, want)
	}

	for name, corrupt := range map[string][]byte{
		"alarms-header": bytes.Replace(data, []byte("\nalarms 2\n"), []byte("\nalarms x\n"), 1),
		"alarm-line":    bytes.Replace(data, []byte("alarm astra-"), []byte("alarm nonsense-"), 1),
		"alarm-count":   bytes.Replace(data, []byte("\nalarms 2\n"), []byte("\nalarms 3\n"), 1),
		"truncated":     data[:len(data)-3],
	} {
		if _, err := decodeState(t, corrupt); err == nil {
			t.Errorf("%s: corrupted v4 state accepted", name)
		}
	}

	// A v3 file — same snapshots, ledgers not representable — still
	// loads: a daemon upgraded in place keeps its checkpoint and starts
	// with empty ledgers.
	old, err := decodeState(t, fixture(t, "v3.state"))
	if err != nil {
		t.Fatalf("v3 state rejected: %v", err)
	}
	want[0].Alarms = nil
	sameSnapshots(t, old, want)
}

var alarmedGaugeRE = regexp.MustCompile(`astrad_predict_alarmed_banks ([0-9.e+]+)`)

// TestDaemonAlarmLedgerSurvivesRestart is the prediction-layer
// kill/restart test: kill the daemon after banks have alarmed, restart
// it over the same state, and (a) the live risk ranking matches a batch
// feature computation over the whole log — the feature state rebuilt
// exactly — and (b) every first-alarm timestamp survives byte-for-byte,
// so lead-time accounting never re-stamps across restarts.
func TestDaemonAlarmLedgerSurvivesRestart(t *testing.T) {
	full, ces := testLog(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.log")
	statePath := filepath.Join(dir, "astrad.state")

	cut := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	// Threshold 0.1: any bank passing the ladder's first rung (>= 2 CEs)
	// alarms, so the fixture's first half is guaranteed to populate the
	// ledger.
	extra := []string{"-risk-threshold", "0.1", "-checkpoint-every", "50ms"}
	_, cancel, done, errs := startDaemonArgs(t, logPath, statePath, extra...)

	// Wait until a checkpoint carrying alarms lands on disk. The state
	// file is written atomically, but the generation ladder can leave a
	// brief gap at the head path — retry through it.
	deadline := time.Now().Add(150 * time.Second)
	for {
		if snaps, err := loadState(statePath); err == nil && len(snaps) == 1 && len(snaps[0].Alarms) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no alarms checkpointed; stderr:\n%s", errs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 1 exit = %d; stderr:\n%s", code, errs.String())
	}

	state, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(state, []byte(statestore.Magic+"\n")) {
		t.Fatalf("state not v5: %q", state[:min(len(state), 40)])
	}
	snaps, err := loadState(statePath)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("phase 1 state: %d sites, %v", len(snaps), err)
	}
	firstAlarms := make(map[core.BankKey]int64, len(snaps[0].Alarms))
	for _, a := range snaps[0].Alarms {
		firstAlarms[a.Key] = a.At
	}
	if len(firstAlarms) == 0 {
		t.Fatal("phase 1 ledger empty")
	}

	// Phase 2: the rest of the log, restart over the same state.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addr, cancel, done, errs := startDaemonArgs(t, logPath, statePath, extra...)
	waitForRecords(t, addr, len(ces))

	// Feature state rebuilt exactly: the served ranking agrees with a
	// batch tracker over the whole log — same bank count, same top score.
	tr := predict.NewTracker(predict.TrackerConfig{
		Window:      stream.DefaultWindow,
		RateBuckets: stream.DefaultRateBuckets,
	})
	for i := range ces {
		tr.Observe(&ces[i])
	}
	want := tr.Features(tr.Last())
	scores := predict.SortByRisk(want, predict.DefaultRuleLadder())
	var ar struct {
		Banks  int `json:"banks"`
		AtRisk []struct {
			Score float64 `json:"score"`
		} `json:"atRisk"`
	}
	if code := httpGetJSON(t, "http://"+addr+"/v1/atrisk", &ar); code != http.StatusOK {
		t.Fatalf("/v1/atrisk = %d after restart", code)
	}
	if ar.Banks != len(want) {
		t.Fatalf("served banks = %d, want %d (feature state not rebuilt)", ar.Banks, len(want))
	}
	if len(ar.AtRisk) == 0 || ar.AtRisk[0].Score != scores[0] {
		t.Fatalf("top score = %v, want %v", ar.AtRisk, scores[0])
	}

	// The restored ledger is visible in metrics immediately.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := alarmedGaugeRE.FindSubmatch(metrics)
	if m == nil {
		t.Fatal("metrics missing astrad_predict_alarmed_banks")
	}
	if n, _ := strconv.ParseFloat(string(m[1]), 64); n < float64(len(firstAlarms)) {
		t.Fatalf("alarmed gauge = %v, want >= %d restored alarms", n, len(firstAlarms))
	}

	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("phase 2 exit = %d; stderr:\n%s", code, errs.String())
	}

	// Every phase-1 first-alarm time survives the restart unchanged.
	final, err := loadState(statePath)
	if err != nil || len(final) != 1 {
		t.Fatalf("final state: %d sites, %v", len(final), err)
	}
	finalAlarms := make(map[core.BankKey]int64, len(final[0].Alarms))
	for _, a := range final[0].Alarms {
		finalAlarms[a.Key] = a.At
	}
	if len(finalAlarms) < len(firstAlarms) {
		t.Fatalf("ledger shrank: %d -> %d", len(firstAlarms), len(finalAlarms))
	}
	for k, at := range firstAlarms {
		got, ok := finalAlarms[k]
		if !ok {
			t.Fatalf("alarm for %v lost across restart", k)
		}
		if got != at {
			t.Fatalf("alarm for %v re-stamped: %d -> %d", k, at, got)
		}
	}
}
