package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	astra "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mce"
	"repro/internal/overload"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/syslog"
	"repro/internal/topology"
)

// layerMetrics is every per-layer metric with its unit, in the order
// they are documented. A traced run reports all of them; a layer its
// workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"syslog.scan_s", "s"},
	{"syslog.lines", "count"},
	{"syslog.duplicated", "count"},
	{"syslog.reordered", "count"},
	{"overload.queue_s", "s"},
	{"overload.shed", "count"},
	{"overload.saturations", "count"},
	{"overload.depth_max", "count"},
	{"stream.ingest_s", "s"},
	{"predict.observe_s", "s"},
	{"stream.records_s", "s"},
	{"stream.view_build_s", "s"},
	{"stream.view_builds", "count"},
	{"serve.render_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.not_modified_ratio", "ratio"},
	{"predict.score_s", "s"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.count", "count"},
	{"checkpoint.skipped", "count"},
	{"restore.records", "count"},
	{"restore.replayed_bytes", "bytes"},
	{"dataset.build_s", "s"},
	{"dataset.read_s", "s"},
	{"core.cluster_s", "s"},
	{"core.cluster_calls", "count"},
	{"core.analyze_s", "s"},
	{"report.render_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"astrad.backfill_rps", "1/s"},
	{"astrad.shutdown_s", "s"},
	{"astrad.restore_s", "s"},
	{"astrad.api_p50_ms", "ms"},
	{"astrad.api_p99_ms", "ms"},
	{"trace.total_s", "s"},
	{"trace.glue_s", "s"},
	{"trace.untraced_s", "s"},
}

// spanLayer maps each traced call to the layer metric its self time
// counts toward; spans not listed (the workload roots) are glue.
var spanLayer = map[string]string{
	"syslog.Scanner.Scan":             "syslog.scan_s",
	"overload.Queue.Offer":            "overload.queue_s",
	"overload.Queue.Take":             "overload.queue_s",
	"stream.Sharded.IngestBatch":      "stream.ingest_s",
	"predict.Tracker.ObserveFeatures": "predict.observe_s",
	"stream.Sharded.Records":          "stream.records_s",
	"stream.Sharded.BuildView":        "stream.view_build_s",
	"serve.Handler":                   "serve.render_s",
	"serve.Handler /v1/atrisk":        "predict.score_s",
	"dataset.Build":                   "dataset.build_s",
	"dataset.ReadRecords":             "dataset.read_s",
	"core.Cluster":                    "core.cluster_s",
	"Study.Analyze":                   "core.analyze_s",
	"Study.WriteReport":               "report.render_s",
}

// reportTrace turns a trace summary into the per-layer metrics, puts the
// trace's own total beside the untraced wall time of the same work, and
// prints the span table.
func (b *bench) reportTrace(s summary, untraced float64) {
	named := 0.0
	for span, layer := range spanLayer {
		v := s.seconds(span)
		named += v
		b.layers[layer] = metric{Value: b.layers[layer].Value + v, Unit: "s"}
	}
	b.setLayer("core.cluster_calls", float64(s.calls["core.Cluster"]), "count")
	b.setLayer("stream.view_builds", float64(s.calls["stream.Sharded.BuildView"]), "count")
	b.setLayer("trace.total_s", s.total.Seconds(), "s")
	b.setLayer("trace.glue_s", s.total.Seconds()-named, "s")
	b.setLayer("trace.untraced_s", untraced, "s")
	for _, m := range layerMetrics {
		if _, ok := b.layers[m.name]; !ok {
			b.setLayer(m.name, 0, m.unit)
		}
	}
	fmt.Printf("trace: total %.4fs, untraced %.4fs; self time by span:\n", s.total.Seconds(), untraced)
	for _, n := range s.names() {
		fmt.Printf("  %-34s %10.4fs %7d calls\n", n, s.self[n].Seconds(), s.calls[n])
	}
}

// traceStudy feeds the input through the functions astrareport
// -from-syslog composes, in its order: astra.Run (dataset.Build, then
// core.Cluster over the generated records, which the log's records then
// replace), dataset.ReadRecords, core.SanitizeRecords, core.Cluster,
// Study.Analyze and the report writer.
func (b *bench) traceStudy(in *input, want []byte, untraced float64) error {
	ctx := context.Background()
	var tr tracer
	var err error
	root := tr.begin("study")
	study := &astra.Study{Options: astra.Options{Seed: genSeed, Nodes: genNodes}}
	tr.do("astra.Run", func() {
		cfg := dataset.DefaultConfig(genSeed)
		cfg.Seed, cfg.Nodes = genSeed, genNodes
		tr.do("dataset.Build", func() { study.Dataset, err = dataset.Build(ctx, cfg) })
		if err == nil {
			tr.do("core.Cluster", func() {
				study.Faults, err = core.Cluster(ctx, study.Dataset.CERecords, core.DefaultClusterConfig())
			})
		}
	})
	if err != nil {
		return err
	}
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer f.Close()
	var ces []mce.CERecord
	var rep dataset.IngestReport
	ds := study.Dataset
	tr.do("dataset.ReadRecords", func() {
		ces, ds.DUERecords, ds.HETRecords, rep, err = dataset.ReadRecords(f, dataset.IngestPolicy{
			ReorderWindow: 2 * time.Minute, MaxMalformedFrac: -1,
		})
	})
	if err != nil {
		return err
	}
	tr.do("core.SanitizeRecords", func() {
		if sanitized, san := core.SanitizeRecords(ces); san.WasUnsorted {
			ces = sanitized
		}
	})
	ds.CERecords = ces
	tr.do("core.Cluster", func() { study.Faults, err = core.Cluster(ctx, ces, core.DefaultClusterConfig()) })
	if err != nil {
		return err
	}
	var res *astra.Results
	tr.do("Study.Analyze", func() { res, err = study.Analyze(ctx) })
	if err != nil {
		return err
	}
	var out []byte
	tr.do("Study.WriteReport", func() { out, err = renderReport(study, res) })
	if err != nil {
		return err
	}
	tr.end(root)
	b.check("traced study report", matchReport(out, want))

	b.setLayer("syslog.lines", float64(rep.Lines), "count")
	b.setLayer("syslog.duplicated", float64(rep.Duplicated), "count")
	b.setLayer("syslog.reordered", float64(rep.Reordered), "count")
	b.reportTrace(tr.summarize(root), untraced)
	return nil
}

// pipeline is the in-process composition of astrad's ingest path:
// syslog.Scanner → overload.Queue → stream.Sharded, with the same
// settings the daemon uses by default, run serially so each call's span
// is its own. The same batches also go through predict's feature
// upkeep in a span of their own: the engine does that work inside
// IngestBatch, so predict.observe_s estimates its share.
type pipeline struct {
	tr       *tracer
	eng      *stream.Sharded
	q        *overload.Queue[mce.CERecord]
	feat     *predict.Tracker
	pending  []mce.CERecord
	depthMax int
	scanSpan int    // the open syslog.Scanner.Scan span
	viewSeq  uint64 // epoch of the last view built
}

// astrad's admission defaults (-queue-depth, -drain-batch).
const (
	astradQueueDepth = 65536
	astradDrainBatch = 1024
)

func newPipeline(tr *tracer) *pipeline {
	eng := stream.NewSharded(stream.ShardedConfig{
		Partitions: 1,
		Engine:     stream.Config{Window: stream.DefaultWindow, DIMMs: topology.DIMMs},
	})
	return &pipeline{
		tr:  tr,
		eng: eng,
		q: overload.NewQueue[mce.CERecord](overload.Config{
			Capacity: astradQueueDepth,
			Policy:   overload.PolicyReject,
			OnShed:   func(n int) { eng.NoteShed(n) },
		}),
		feat: predict.NewTracker(predict.DefaultTrackerConfig()),
	}
}

// flush admits the pending records and drains them into the engine.
func (p *pipeline) flush() {
	if len(p.pending) == 0 {
		return
	}
	p.tr.do("overload.Queue.Offer", func() {
		for _, r := range p.pending {
			p.q.Offer(r)
		}
	})
	p.depthMax = max(p.depthMax, p.q.Depth())
	for p.q.Depth() > 0 {
		var batch []mce.CERecord
		p.tr.do("overload.Queue.Take", func() { batch, _ = p.q.Take(astradDrainBatch) })
		p.tr.do("stream.Sharded.IngestBatch", func() { p.eng.IngestBatch(batch) })
		p.q.Done()
		p.tr.do("predict.Tracker.ObserveFeatures", func() {
			for i := range batch {
				p.feat.ObserveFeatures(&batch[i])
			}
		})
	}
	p.pending = p.pending[:0]
}

// scan runs the scanner over in.data with a stopped-tail end, flushing
// every drain batch and calling atBound after flushing at each boundary.
// Scanning time sits in syslog.Scanner.Scan spans; the work the
// boundary callbacks do inside a Scan call is in child spans, so it is
// not counted as scanning.
func (p *pipeline) scan(in *input, bounds []int, atBound func(k int)) (syslog.ScanStats, error) {
	br := &boundaryReader{data: in.data, bounds: bounds}
	br.at = func(k int) {
		p.flush()
		if atBound != nil {
			atBound(k)
		}
	}
	sc := syslog.NewScannerConfig(br, syslog.ScanConfig{DedupWindow: astradDedup, ReorderWindow: astradReorder})
	p.scanSpan = p.tr.begin("syslog.Scanner.Scan")
	for sc.Scan() {
		if rec := sc.Record(); rec.Kind == syslog.KindCE {
			p.pending = append(p.pending, rec.CE)
			if len(p.pending) == astradDrainBatch {
				p.tr.end(p.scanSpan)
				p.flush()
				p.scanSpan = p.tr.begin("syslog.Scanner.Scan")
			}
		}
	}
	p.tr.end(p.scanSpan)
	p.flush()
	if err := sc.Err(); err != nil && !errors.Is(err, errStopped) {
		return sc.Stats(), err
	}
	return sc.Stats(), nil
}

func (b *bench) scanLayers(st syslog.ScanStats, p *pipeline) {
	b.setLayer("syslog.lines", float64(st.Lines), "count")
	b.setLayer("syslog.duplicated", float64(st.Duplicated), "count")
	b.setLayer("syslog.reordered", float64(st.Reordered), "count")
	qs := p.q.Stats()
	b.setLayer("overload.shed", float64(qs.Shed), "count")
	b.setLayer("overload.saturations", float64(qs.Saturations), "count")
	b.setLayer("overload.depth_max", float64(p.depthMax), "count")
}

// newServer serves the pipeline's engine in-process the way astrad does.
func newServer(eng *stream.Sharded) http.Handler {
	return serve.New(serve.Config{
		Source: eng,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
}

// serveGet runs one GET through the handler inside a span.
func (p *pipeline) serveGet(h http.Handler, path, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	name := "serve.Handler"
	if path == "/v1/atrisk" {
		name += " /v1/atrisk"
	}
	p.tr.do(name, func() { h.ServeHTTP(rec, req) })
	return rec
}

// checkServed compares the in-process server's answers with the batch
// answer, through the same decoding the daemon checks use.
func (b *bench) checkServed(p *pipeline, h http.Handler, want *batchAnswer, when string) {
	var bd breakdownBody
	err := decodeOK(p.serveGet(h, "/v1/breakdown", ""), &bd)
	if err == nil {
		err = want.matchBreakdown(bd)
	}
	b.check(when+" /v1/breakdown", err)
	var fb faultsBody
	err = decodeOK(p.serveGet(h, "/v1/faults", ""), &fb)
	if err == nil {
		err = want.matchFaults(fb)
	}
	b.check(when+" /v1/faults", err)
}

func decodeOK(rec *httptest.ResponseRecorder, v any) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d", rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// traceBackfill feeds the whole input through the ingest pipeline, then
// reads the records back as a checkpoint does, builds the view and
// serves the two answers the daemon is checked on.
func (b *bench) traceBackfill(in *input, want *batchAnswer, untraced float64) error {
	var tr tracer
	root := tr.begin("backfill")
	p := newPipeline(&tr)
	st, err := p.scan(in, []int{len(in.data)}, nil)
	if err != nil {
		return err
	}
	var recs []mce.CERecord
	tr.do("stream.Sharded.Records", func() { recs = p.eng.Records() })
	p.buildView()
	h := newServer(p.eng)
	b.checkServed(p, h, want, "traced backfill")
	tr.end(root)
	b.check("traced records", sameRecords(recs, want.records))
	b.scanLayers(st, p)
	b.reportTrace(tr.summarize(root), untraced)
	return nil
}

// buildView materializes a fresh view if the engine moved since the
// last one, as the daemon's first read after ingest does.
func (p *pipeline) buildView() {
	if seq := p.eng.Seq(); seq != p.viewSeq || seq == 0 {
		p.tr.do("stream.Sharded.BuildView", func() { p.viewSeq = p.eng.BuildView().Seq })
	}
}

// traceLive ingests the history, then feeds the live session's appends
// through the pipeline in the groups a tail polling at astrad's default
// interval picks them up, and after each group makes the client's
// requests that fall in its time, building the view first as the
// daemon does on the first read after ingest. Only the session is
// summarized.
func (b *bench) traceLive(in *input, ref *reference, want *batchAnswer, bounds []int, untraced float64) error {
	var tr tracer
	p := newPipeline(&tr)
	h := newServer(p.eng)
	root := tr.begin("history")
	ticks := len(bounds) - 1
	group := max(1, int(syslog.DefaultTailPoll/b.liveTick()))
	polled, tickAt := []int{bounds[0]}, []int{0}
	for t := group; t < ticks+group; t += group {
		t = min(t, ticks)
		polled, tickAt = append(polled, bounds[t]), append(tickAt, t)
	}
	plan := newClientPlan(b.seed, ref.records[:ref.released[0]])
	n := 0
	quota := b.liveQuota()
	etag := ""
	atBound := func(k int) {
		if k == 0 {
			// The history is in: close it and open the session, moving
			// the scan span this callback runs inside along with it.
			tr.end(p.scanSpan)
			tr.end(root)
			root = tr.begin("session")
			p.scanSpan = tr.begin("syslog.Scanner.Scan")
			return
		}
		for first := true; n < quota && n*ticks < tickAt[k]*quota; n++ {
			if first {
				p.buildView()
				first = false
			}
			path, conditional := plan(n)
			inm := ""
			if conditional {
				inm = etag
			}
			rec := p.serveGet(h, path, inm)
			if tag := rec.Header().Get("ETag"); tag != "" {
				etag = tag
			}
			ok := rec.Code == http.StatusOK || (rec.Code == http.StatusNotModified && inm != "")
			b.attempt("traced request "+path, ok)
		}
	}
	st, err := p.scan(in, polled, atBound)
	if err != nil {
		return err
	}
	tr.end(root)
	b.checkServed(p, h, want, "traced live")

	b.scanLayers(st, p)
	hits, misses, notMod := cacheCounters(h)
	if hits+misses > 0 {
		b.setLayer("serve.cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	if hits+misses+notMod > 0 {
		b.setLayer("serve.not_modified_ratio", notMod/(hits+misses+notMod), "ratio")
	}
	b.reportTrace(tr.summarize(root), untraced)
	return nil
}

// cacheCounters scrapes the in-process server's response-cache counters.
func cacheCounters(h http.Handler) (hits, misses, notMod float64) {
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "astrad_cache_hits_total":
			hits = v
		case "astrad_cache_misses_total":
			misses = v
		case "astrad_cache_not_modified_total":
			notMod = v
		}
	}
	return hits, misses, notMod
}

// sameRecords requires the engine's record list to be the reference's.
func sameRecords(got, want []mce.CERecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("record %d differs", i)
		}
	}
	return nil
}
