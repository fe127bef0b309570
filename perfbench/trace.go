package main

import (
	"sort"
	"time"
)

// span is one traced call: its name, the span that made it, and when it
// ran. Spans are recorded by the benchmark around calls into the
// program's public functions, kept in memory and summarized at the end.
type span struct {
	name       string
	parent     int // -1 for a root
	start, end time.Time
}

// tracer records nested spans on one goroutine.
type tracer struct {
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].end = time.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// summary is the trace folded by span name under one root: each name's
// self time (its spans' durations less the time their child spans
// cover) and call count.
type summary struct {
	total time.Duration // the root's duration
	self  map[string]time.Duration
	calls map[string]int
}

func (t *tracer) summarize(root int) summary {
	s := summary{
		total: t.spans[root].end.Sub(t.spans[root].start),
		self:  map[string]time.Duration{},
		calls: map[string]int{},
	}
	under := make([]bool, len(t.spans))
	under[root] = true
	for i := root + 1; i < len(t.spans); i++ {
		if p := t.spans[i].parent; p >= 0 && under[p] {
			under[i] = true
		}
	}
	for i, sp := range t.spans {
		if !under[i] {
			continue
		}
		d := sp.end.Sub(sp.start)
		s.self[sp.name] += d
		s.calls[sp.name]++
		if p := sp.parent; p >= 0 && i != root {
			s.self[t.spans[p].name] -= d
		}
	}
	return s
}

// seconds is the summed self time of the named spans.
func (s summary) seconds(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += s.self[n]
	}
	return d.Seconds()
}

// names lists the span names in the summary, for the breakdown table.
func (s summary) names() []string {
	out := make([]string, 0, len(s.self))
	for n := range s.self {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return s.self[out[i]] > s.self[out[j]] })
	return out
}
