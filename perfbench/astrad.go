package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/mce"
)

const (
	// backfillProbes is how many extra cold starts, killed at their first
	// /healthz, the backfill workload times for its set-up median.
	backfillProbes = 4
	// liveSetups is how many times the live workload restarts a daemon on
	// its history's state; all but the last are killed once it is visible.
	liveSetups = 3

	// liveAppendLines are appended during the live session; the rest of
	// the input (~1M records) is the history the daemon starts with.
	liveAppendLines = 150_000
	// liveAppends is how many appends the open loop makes, evenly spaced
	// over the session.
	liveAppends = 2000
	// liveCheckpointEvery is the live daemon's checkpoint cadence.
	liveCheckpointEvery = "1s"
	// liveThink is the closed-loop client's pause between a reply and its
	// next request; with it the client's quota of requests spans most of
	// the session instead of finishing in its first moments.
	liveThink = 5 * time.Millisecond

	// visibleTimeout bounds every wait for records to become visible.
	visibleTimeout = 150 * time.Second
	// catchUpPoll is how often a catch-up is polled on /healthz: ~2% of
	// one, and slow enough that the view each poll rebuilds while the
	// engine moves stays a small load.
	catchUpPoll = 100 * time.Millisecond
	// restorePoll is how often a restart is polled: /healthz answers only
	// once the state is loaded, and then there is nothing to catch up.
	restorePoll = 10 * time.Millisecond
	// maxEpisodes caps the study's repeated reports within --seconds, and
	// maxCatchUps the backfill's cold catch-ups.
	maxEpisodes = 3
	maxCatchUps = 3
	// livePoll is how often the live session polls /healthz: fine enough
	// to time appends that become visible within a tail poll.
	livePoll = 5 * time.Millisecond
)

// stateArgs is the daemon command line over a log and a fresh state
// directory under the run's scratch space.
func (b *bench) stateArgs(log, name string) ([]string, string, error) {
	dir := filepath.Join(b.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	state := filepath.Join(dir, "astrad.state")
	return []string{"-log", log, "-state", state}, state, nil
}

// firstHealthz polls until /healthz answers 200 and returns the time
// from exec.
func (d *daemon) firstHealthz() (time.Duration, error) {
	deadline := time.Now().Add(visibleTimeout)
	for {
		code, _, _, err := get(d.base+"/healthz", "")
		if err == nil && code == http.StatusOK {
			return time.Since(d.start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("/healthz not ready within %v: %v", visibleTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// runBackfill is onboarding, outage catch-up and redeploy: a cold astrad
// at its default flags over the whole input until every record is
// visible, SIGTERM (the final checkpoint), then a restart on the same
// state until every record is visible again. Catch-ups vary ±15% from
// one to the next on a shared machine, so the run repeats the cold
// catch-up while it fits in --seconds (killing all but the last) and
// reports medians; the last daemon goes through the SIGTERM and restore.
func runBackfill(b *bench) error {
	in, _, err := b.prepareInput(0)
	if err != nil {
		return err
	}
	ref, err := scanReference(in, nil)
	if err != nil {
		return err
	}
	want, err := newBatchAnswer(ref.records)
	if err != nil {
		return err
	}
	b.stamp(in)
	b.mark("input and reference")
	total := len(ref.records)

	var setups []float64
	for i := 0; i < backfillProbes; i++ {
		args, _, err := b.stateArgs(in.path, fmt.Sprintf("probe%d", i))
		if err != nil {
			return err
		}
		d, err := b.startAstrad(args...)
		if err != nil {
			return err
		}
		ready, err := d.firstHealthz()
		d.kill()
		if err != nil {
			return err
		}
		setups = append(setups, ready.Seconds())
	}
	b.mark("set-up probes")

	var catchUps, p50s, p99s, rsss []float64
	var d *daemon
	var args []string
	var state string
	start := time.Now()
	for n := 0; ; n++ {
		if args, state, err = b.stateArgs(in.path, fmt.Sprintf("catchup%d", n)); err != nil {
			return err
		}
		if d, err = b.startAstrad(args...); err != nil {
			return err
		}
		samples, err := d.waitRecords(total, catchUpPoll, visibleTimeout)
		b.attempt("backfill until every record is visible", err == nil)
		if err != nil {
			d.kill()
			return err
		}
		setups = append(setups, samples[0].at.Sub(d.start).Seconds())
		catchUps = append(catchUps, samples[len(samples)-1].at.Sub(d.start).Seconds())
		p50s = append(p50s, 1000*shareVisible(samples, d.start, total, 0.50))
		p99s = append(p99s, 1000*shareVisible(samples, d.start, total, 0.99))
		b.checkAnswers(d, want, "backfill")
		if b.trace || n+1 == maxCatchUps || time.Since(start)+meanDur(catchUps) > b.secondsDur() {
			break
		}
		d.kill()
		rsss = append(rsss, d.rssMB())
		if err := os.RemoveAll(filepath.Dir(state)); err != nil {
			return err
		}
	}
	b.mark("catch-ups")

	cp, err := d.scrape("astrad_checkpoints_total", "astrad_checkpoints_skipped_total")
	if err != nil {
		d.kill()
		return err
	}
	shutdown, err := d.stop(syscall.SIGTERM)
	b.attempt("SIGTERM shutdown", err == nil)
	if err != nil {
		return err
	}
	rsss = append(rsss, d.rssMB())
	st, err := os.Stat(state)
	if err != nil {
		return fmt.Errorf("no state after SIGTERM: %v", err)
	}
	d2, err := b.startAstrad(args...)
	if err != nil {
		return err
	}
	samples, err := d2.waitRecords(total, restorePoll, visibleTimeout)
	restored := d2.restoredField("records")
	restoreOK := err == nil && restored == int64(total)
	b.attempt("restore with every record", restoreOK)
	if err != nil {
		d2.kill()
		return err
	}
	if !restoreOK {
		fmt.Printf("restore: state held %d records, want %d\n", restored, total)
	}
	restore := samples[len(samples)-1].at.Sub(d2.start).Seconds()
	b.checkAnswers(d2, want, "restore")
	if _, err := d2.stop(syscall.SIGTERM); err != nil {
		b.attempt("SIGTERM shutdown after restore", false)
		return err
	}
	b.attempt("SIGTERM shutdown after restore", true)
	rsss = append(rsss, d2.rssMB())
	b.mark("shutdown and restore")

	catchUp := median(catchUps)
	b.setE2E("setup_s", median(setups), "s")
	b.setE2E("work_s", catchUp+shutdown.Seconds()+restore, "s")
	b.setE2E("fresh_p50_ms", median(p50s), "ms")
	b.setE2E("fresh_p99_ms", median(p99s), "ms")
	b.setLayer("proc.peak_rss_mb", maxOf(rsss), "MB")
	b.setLayer("astrad.backfill_rps", float64(total)/catchUp, "1/s")
	b.setLayer("astrad.shutdown_s", shutdown.Seconds(), "s")
	b.setLayer("astrad.restore_s", restore, "s")
	b.setLayer("checkpoint.bytes", float64(st.Size()), "bytes")
	b.setLayer("checkpoint.count", cp["astrad_checkpoints_total"]+1, "count") // +1: the final checkpoint
	b.setLayer("checkpoint.skipped", cp["astrad_checkpoints_skipped_total"], "count")
	b.setLayer("restore.records", float64(restored), "count")
	b.setLayer("restore.replayed_bytes", float64(int64(len(in.data))-d2.restoredField("offset")), "bytes")
	fmt.Printf("backfill: setup_s=%.4f backfill_s=%.4f (median of %d) backfill_rps=%.0f shutdown_s=%.4f restore_s=%.4f state_mb=%.2f peak_rss_mb=%.1f\n",
		median(setups), catchUp, len(catchUps), float64(total)/catchUp, shutdown.Seconds(), restore, float64(st.Size())/1e6, maxOf(rsss))
	if b.trace {
		return b.traceBackfill(in, want, catchUp)
	}
	return nil
}

// shareVisible is the time from start until /healthz first showed at
// least share of total records: the share-quantile of record freshness
// when every record was on disk at start.
func shareVisible(samples []visSample, start time.Time, total int, share float64) float64 {
	need := int(math.Ceil(share * float64(total)))
	for _, s := range samples {
		if s.records >= need {
			return s.at.Sub(start).Seconds()
		}
	}
	return samples[len(samples)-1].at.Sub(start).Seconds()
}

// runLive is a daemon holding ~1M records of history with a 1 s
// checkpoint cadence while an open loop appends the rest of the input on
// a fixed schedule and one closed-loop client reads the API.
func runLive(b *bench) error {
	in, _, err := b.prepareInput(0)
	if err != nil {
		return err
	}
	hist := in.lines - liveAppendLines
	ticks := liveAppends
	// bounds[0] is the history; bounds[i+1] ends append i.
	bounds := make([]int, ticks+1)
	bounds[0] = in.offsetAfter(hist)
	for i := 0; i < ticks; i++ {
		bounds[i+1] = in.offsetAfter(hist + (i+1)*liveAppendLines/ticks)
	}
	ref, err := scanReference(in, bounds)
	if err != nil {
		return err
	}
	want, err := newBatchAnswer(ref.records)
	if err != nil {
		return err
	}
	b.stamp(in)
	b.mark("input and reference")

	// The history comes in the way a redeployed daemon gets it: a cold
	// daemon at default flags catches up and is stopped, and the live
	// daemon restores its state. Each set-up is a restart on that state,
	// timed from exec until the history is visible; a caught-up daemon
	// writes no checkpoints, so the killed ones leave the state as it was.
	logPath := filepath.Join(b.work, "live.log")
	if err := writeSynced(logPath, in.data[:bounds[0]]); err != nil {
		return err
	}
	args, state, err := b.stateArgs(logPath, "live")
	if err != nil {
		return err
	}
	d, err := b.startAstrad(args...)
	if err != nil {
		return err
	}
	_, err = d.waitRecords(ref.released[0], catchUpPoll, visibleTimeout)
	b.attempt("history visible", err == nil)
	if err != nil {
		d.kill()
		return err
	}
	_, err = d.stop(syscall.SIGTERM)
	b.attempt("SIGTERM shutdown", err == nil)
	if err != nil {
		return err
	}
	b.mark("history")
	args = append(args, "-checkpoint-every", liveCheckpointEvery)
	var setups []float64
	for i := 0; i < liveSetups; i++ {
		if i > 0 {
			d.kill()
		}
		if d, err = b.startAstrad(args...); err != nil {
			return err
		}
		samples, err := d.waitRecords(ref.released[0], restorePoll, visibleTimeout)
		b.attempt("history restored", err == nil)
		if err != nil {
			d.kill()
			return err
		}
		setups = append(setups, samples[len(samples)-1].at.Sub(d.start).Seconds())
	}
	b.mark("set-ups")
	cp0, err := d.scrape("astrad_checkpoints_total", "astrad_checkpoints_skipped_total")
	if err != nil {
		d.kill()
		return err
	}

	s := b.liveSession(d, in, ref, bounds, logPath)
	b.mark("session")
	b.checkAnswers(d, want, "live")
	cp1, err := d.scrape("astrad_checkpoints_total", "astrad_checkpoints_skipped_total")
	if err != nil {
		d.kill()
		return err
	}
	shutdown, err := d.stop(syscall.SIGTERM)
	b.attempt("SIGTERM shutdown", err == nil)
	if err != nil {
		return err
	}
	st, err := os.Stat(state)
	if err != nil {
		return fmt.Errorf("no state after SIGTERM: %v", err)
	}
	if len(s.fresh) == 0 || len(s.api) == 0 {
		return errors.New("live session produced no samples")
	}

	b.setE2E("setup_s", median(setups), "s")
	b.setE2E("work_s", s.sessionWall+shutdown.Seconds(), "s")
	b.setE2E("fresh_p50_ms", quantile(s.fresh, 0.50), "ms")
	b.setE2E("fresh_p99_ms", quantile(s.fresh, 0.99), "ms")
	b.setLayer("proc.peak_rss_mb", d.rssMB(), "MB")

	b.setLayer("astrad.api_p50_ms", quantile(s.api, 0.50), "ms")
	b.setLayer("astrad.api_p99_ms", quantile(s.api, 0.99), "ms")
	b.setLayer("astrad.shutdown_s", shutdown.Seconds(), "s")
	b.setLayer("loadgen.late_p99_ms", quantile(s.late, 0.99), "ms")
	b.setLayer("checkpoint.bytes", float64(st.Size()), "bytes")
	b.setLayer("checkpoint.count", cp1["astrad_checkpoints_total"]-cp0["astrad_checkpoints_total"], "count")
	b.setLayer("checkpoint.skipped", cp1["astrad_checkpoints_skipped_total"]-cp0["astrad_checkpoints_skipped_total"], "count")
	fmt.Printf("live: setup_s=%.4f fresh_p50_ms=%.2f fresh_p99_ms=%.2f (%d appends) api_p50_ms=%.2f api_p99_ms=%.2f (%d requests, %.1f%% 304) client_wait_s=%.3f late_p99_ms=%.3f checkpoints=%g state_mb=%.2f shutdown_s=%.4f peak_rss_mb=%.1f\n",
		median(setups), quantile(s.fresh, 0.5), quantile(s.fresh, 0.99), len(s.fresh),
		quantile(s.api, 0.5), quantile(s.api, 0.99), len(s.api), 100*float64(s.notModified)/float64(len(s.api)),
		s.clientWait, quantile(s.late, 0.99), cp1["astrad_checkpoints_total"]-cp0["astrad_checkpoints_total"],
		float64(st.Size())/1e6, shutdown.Seconds(), d.rssMB())
	if b.trace {
		return b.traceLive(in, ref, want, bounds, s.sessionWall)
	}
	return nil
}

// liveResult is what one live session measured, in milliseconds.
type liveResult struct {
	fresh, api, late []float64
	notModified      int
	clientWait       float64 // seconds the client spent waiting for its quota of replies
	sessionWall      float64 // seconds from the first append's due time until the last was visible
}

// liveSession runs the open-loop appender, the /healthz watcher and the
// closed-loop client against d until every append is visible and the
// client has made its quota.
func (b *bench) liveSession(d *daemon, in *input, ref *reference, bounds []int, logPath string) liveResult {
	var res liveResult
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		b.attempt("open log for appending", false)
		return res
	}
	defer f.Close()
	ticks := len(bounds) - 1
	final := ref.released[ticks]
	due := make([]time.Time, ticks)
	start := time.Now().Add(20 * time.Millisecond)
	for i := range due {
		due[i] = start.Add(time.Duration(i) * b.liveTick())
	}

	var wg sync.WaitGroup
	stopWatch := make(chan struct{})
	var samples []visSample
	wg.Add(2)
	go func() { // the /healthz watcher
		defer wg.Done()
		deadline := due[ticks-1].Add(30 * time.Second)
		for {
			var h healthz
			if err := getJSON(d.base+"/healthz", &h); err == nil {
				samples = append(samples, visSample{time.Now(), h.Records})
				if h.Records >= final {
					return
				}
			}
			select {
			case <-stopWatch:
				return
			case <-time.After(livePoll):
			}
			if time.Now().After(deadline) {
				return
			}
		}
	}()
	var apiFailed int
	go func() { // the closed-loop client
		defer wg.Done()
		res.api, res.notModified, apiFailed, res.clientWait = b.liveClient(d, ref)
	}()

	// The open loop: append i is due at due[i] whatever happened to the
	// previous ones; lateness is how far behind schedule it was written.
	for i := 0; i < ticks; i++ {
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		_, err := f.Write(in.data[bounds[i]:bounds[i+1]])
		res.late = append(res.late, float64(time.Since(due[i]))/1e6)
		if err != nil {
			b.attempt("append", false)
			close(stopWatch)
			wg.Wait()
			return res
		}
	}
	wg.Wait()
	b.attempted += len(res.api)
	b.failed += apiFailed
	if apiFailed > 0 {
		fmt.Printf("FAILED %d API requests\n", apiFailed)
	}

	if n := len(samples); n > 0 {
		res.sessionWall = samples[n-1].at.Sub(due[0]).Seconds()
	}
	// Each append is fresh once /healthz first shows the reference count
	// for its prefix, measured from when the append was due.
	j := 0
	for i := 0; i < ticks; i++ {
		for j < len(samples) && (samples[j].at.Before(due[i]) || samples[j].records < ref.released[i+1]) {
			j++
		}
		b.attempt("append visible", j < len(samples))
		if j == len(samples) {
			continue
		}
		res.fresh = append(res.fresh, float64(samples[j].at.Sub(due[i]))/1e6)
	}
	return res
}

// liveEndpoints is the client's endpoint mix; "node" is replaced by a
// node drawn from the history.
var liveEndpoints = []string{"/v1/breakdown", "/v1/faults", "/v1/fit", "/v1/atrisk", "node"}

// newClientPlan returns the client's request sequence for the seed: call
// it with n = 0, 1, 2, ... for each request's path and whether it is
// conditional. The client cycles the endpoint mix, and every other cycle
// is conditional, so half the requests carry If-None-Match.
func newClientPlan(seed uint64, hist []mce.CERecord) func(n int) (string, bool) {
	rng := rand.New(rand.NewSource(int64(seed)))
	return func(n int) (string, bool) {
		path := liveEndpoints[n%len(liveEndpoints)]
		if path == "node" {
			path = "/v1/nodes/" + hist[rng.Intn(len(hist))].Node.String()
		}
		return path, (n/len(liveEndpoints))%2 == 1
	}
}

// liveTick is the open loop's period: the session spread over its
// appends.
func (b *bench) liveTick() time.Duration { return b.secondsDur() / liveAppends }

// liveQuota is the closed-loop client's fixed number of requests: enough
// to keep it busy for ~80% of the session at its think time.
func (b *bench) liveQuota() int {
	// At least 1,000, so the p99 has ten requests beyond it.
	return max(1000, int(0.8*b.seconds*float64(time.Second)/float64(liveThink)))
}

// liveClient is one closed-loop client making its quota of requests from
// the plan, pausing liveThink after each reply; conditional requests
// carry the newest ETag seen. It returns per-request latencies (ms), how
// many were answered 304, how many failed, and the total time it spent
// waiting for replies (s).
func (b *bench) liveClient(d *daemon, ref *reference) (lat []float64, notMod, failed int, wait float64) {
	plan := newClientPlan(b.seed, ref.records[:ref.released[0]])
	etag := ""
	quota := b.liveQuota()
	for n := 0; n < quota; n++ {
		if n > 0 {
			time.Sleep(liveThink)
		}
		path, conditional := plan(n)
		inm := ""
		if conditional {
			inm = etag
		}
		t := time.Now()
		code, tag, _, err := get(d.base+path, inm)
		took := time.Since(t)
		wait += took.Seconds()
		lat = append(lat, float64(took)/1e6)
		switch {
		case err != nil:
			failed++
		case code == http.StatusNotModified && inm != "":
			notMod++
		case code != http.StatusOK:
			failed++
		}
		if tag != "" {
			etag = tag
		}
	}
	return lat, notMod, failed, wait
}
