package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"syscall"
	"time"

	astra "repro"
	"repro/internal/core"
)

// studyGens is how many times the study workload runs astragen: its
// set-up time is the median of these runs.
const studyGens = 3

// runStudy is the analyst's path: astrareport -from-syslog over the
// generated log, from exec to the full report. It exercises dataset,
// syslog, core and report, and none of stream, serve or checkpoints.
func runStudy(b *bench) error {
	in, gens, err := b.prepareInput(studyGens)
	if err != nil {
		return err
	}
	b.mark("astragen set-ups")
	want, err := builtinReport(in)
	if err != nil {
		return err
	}
	b.stamp(in)
	b.mark("built-in report")

	var walls, rss []float64
	start := time.Now()
	for len(walls) == 0 || (!b.trace && len(walls) < maxEpisodes && time.Since(start)+meanDur(walls) <= b.secondsDur()) {
		out, wall, maxRSS, err := b.runReport(in)
		b.attempt("astrareport", err == nil)
		if err != nil {
			fmt.Printf("astrareport: %v\n", err)
			break
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, maxRSS)
		b.check("study report", matchReport(out, want))
	}
	if len(walls) == 0 {
		return fmt.Errorf("astrareport never succeeded")
	}
	b.mark("astrareport runs")
	study := median(walls)
	b.setE2E("setup_s", median(durSeconds(gens)), "s")
	b.setE2E("work_s", study, "s")
	// Every record's answer appears when the report does.
	b.setE2E("fresh_p50_ms", study*1000, "ms")
	b.setE2E("fresh_p99_ms", study*1000, "ms")
	b.setLayer("proc.peak_rss_mb", median(rss), "MB")
	fmt.Printf("study: study_s=%.4f over %d runs, %d CE records\n", study, len(walls), in.within[kindCE])

	if b.trace {
		return b.traceStudy(in, want, study)
	}
	return nil
}

func (b *bench) secondsDur() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

func meanDur(secs []float64) time.Duration {
	if len(secs) == 0 {
		return 0
	}
	var s float64
	for _, x := range secs {
		s += x
	}
	return time.Duration(s / float64(len(secs)) * float64(time.Second))
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// runReport execs astrareport -from-syslog over the input and returns
// its stdout, wall time and peak RSS in MB.
func (b *bench) runReport(in *input) ([]byte, time.Duration, float64, error) {
	cmd := b.command("astrareport",
		"-seed", strconv.Itoa(genSeed), "-nodes", strconv.Itoa(genNodes), "-from-syslog", in.path)
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%v: %s", err, errBuf.String())
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	return out.Bytes(), wall, rss, nil
}

// builtinReport renders the report the built-in pipeline gives for the
// population when its record streams are cut where the input window is
// cut: the log writer emits each stream in order, so the window holds a
// contiguous run of each. astrareport -from-syslog over the window must
// print this report, byte for byte, after its ingest-health preamble.
func builtinReport(in *input) ([]byte, error) {
	ctx := context.Background()
	study, err := astra.Run(ctx, astra.Options{Seed: genSeed, Nodes: genNodes})
	if err != nil {
		return nil, err
	}
	ds := study.Dataset
	lo, hi := in.before, in.before
	for k := range hi {
		hi[k] += in.within[k]
	}
	if hi[kindCE] > len(ds.CERecords) || hi[kindDUE] > len(ds.DUERecords) || hi[kindHET] > len(ds.HETRecords) {
		return nil, fmt.Errorf("input holds more records than the built-in pipeline made")
	}
	ds.CERecords = ds.CERecords[lo[kindCE]:hi[kindCE]]
	ds.DUERecords = ds.DUERecords[lo[kindDUE]:hi[kindDUE]]
	ds.HETRecords = ds.HETRecords[lo[kindHET]:hi[kindHET]]
	if study.Faults, err = core.Cluster(ctx, ds.CERecords, core.DefaultClusterConfig()); err != nil {
		return nil, err
	}
	res, err := study.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	return renderReport(study, res)
}

// renderReport prints a study the way astrareport does: every section,
// then its one-line footer.
func renderReport(study *astra.Study, res *astra.Results) ([]byte, error) {
	var buf bytes.Buffer
	if err := study.WriteReport(&buf, res); err != nil {
		return nil, err
	}
	// WriteReport ends with its own EDAC footer line; astrareport prints
	// a different one.
	body := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	body = body[:bytes.LastIndexByte(body, '\n')+1]
	ds := study.Dataset
	footer := fmt.Sprintf("faults: %d; CE records: %d; EDAC loss: %.2f%%\n",
		len(study.Faults), len(ds.CERecords), 100*ds.EdacStats.LossFraction())
	return append(body, footer...), nil
}

// matchReport requires out, past its ingest-health preamble, to equal
// want.
func matchReport(out, want []byte) error {
	first := want
	if i := bytes.IndexByte(want, '\n'); i >= 0 {
		first = want[:i+1]
	}
	i := bytes.Index(out, first)
	if i < 0 {
		return fmt.Errorf("report section %q not found", bytes.TrimSpace(first))
	}
	got := out[i:]
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	lo := bytes.LastIndexByte(want[:n], '\n') + 1
	return fmt.Errorf("report differs at byte %d, line %q", n, firstLine(got[lo:]))
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}
