package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// breakdownBody is the part of /v1/breakdown the batch answer fixes.
type breakdownBody struct {
	Records      int                     `json:"records"`
	First        time.Time               `json:"first"`
	Last         time.Time               `json:"last"`
	Faults       int                     `json:"faults"`
	FaultsByMode [core.NumFaultModes]int `json:"faultsByMode"`
	ErrorsByMode [core.NumFaultModes]int `json:"errorsByMode"`
	Shed         int                     `json:"shed"`
	Offered      int                     `json:"offered"`
	Degraded     bool                    `json:"degraded"`
}

// faultBody is one /v1/faults entry.
type faultBody struct {
	Node    string    `json:"node"`
	Slot    string    `json:"slot"`
	Rank    int       `json:"rank"`
	Bank    int       `json:"bank"`
	Mode    string    `json:"mode"`
	Col     int       `json:"col"`
	Addr    string    `json:"addr"`
	Bit     int       `json:"bit"`
	NErrors int       `json:"nErrors"`
	First   time.Time `json:"first"`
	Last    time.Time `json:"last"`
}

type faultsBody struct {
	Count  int         `json:"count"`
	Faults []faultBody `json:"faults"`
}

// checkAnswers compares the daemon's /v1/breakdown and /v1/faults with
// the batch answer, recording each comparison.
func (b *bench) checkAnswers(d *daemon, want *batchAnswer, when string) {
	var got breakdownBody
	err := getJSON(d.base+"/v1/breakdown", &got)
	if err == nil {
		err = want.matchBreakdown(got)
	}
	b.check(when+" /v1/breakdown", err)

	var fb faultsBody
	err = getJSON(d.base+"/v1/faults", &fb)
	if err == nil {
		err = want.matchFaults(fb)
	}
	b.check(when+" /v1/faults", err)
}

func (a *batchAnswer) matchBreakdown(got breakdownBody) error {
	n := len(a.records)
	wantB := breakdownBody{
		Records:      n,
		Faults:       len(a.faults),
		FaultsByMode: a.modes.FaultsByMode,
		ErrorsByMode: a.modes.ErrorsByMode,
		Offered:      n,
	}
	if n > 0 {
		wantB.First, wantB.Last = a.records[0].Time, a.records[n-1].Time
	}
	if got.Records != wantB.Records || got.Faults != wantB.Faults ||
		got.FaultsByMode != wantB.FaultsByMode || got.ErrorsByMode != wantB.ErrorsByMode ||
		got.Shed != 0 || got.Offered != wantB.Offered || got.Degraded ||
		!got.First.Equal(wantB.First) || !got.Last.Equal(wantB.Last) {
		return fmt.Errorf("got %+v, batch %+v", got, wantB)
	}
	return nil
}

// matchFaults requires the served fault list to be the batch fault list,
// element for element in the batch order.
func (a *batchAnswer) matchFaults(got faultsBody) error {
	if got.Count != len(a.faults) || len(got.Faults) != len(a.faults) {
		return fmt.Errorf("count %d (%d listed), batch %d", got.Count, len(got.Faults), len(a.faults))
	}
	for i, f := range a.faults {
		w := faultBody{
			Node:    f.Node.String(),
			Slot:    f.Slot.Name(),
			Rank:    f.Rank,
			Bank:    f.Bank,
			Mode:    f.Mode.String(),
			Col:     f.Col,
			Addr:    fmt.Sprintf("%#x", uint64(f.Addr)),
			Bit:     f.Bit,
			NErrors: f.NErrors,
			First:   f.First,
			Last:    f.Last,
		}
		g := got.Faults[i]
		if g.Node != w.Node || g.Slot != w.Slot || g.Rank != w.Rank || g.Bank != w.Bank ||
			g.Mode != w.Mode || g.Col != w.Col || g.Addr != w.Addr || g.Bit != w.Bit ||
			g.NErrors != w.NErrors || !g.First.Equal(w.First) || !g.Last.Equal(w.Last) {
			return fmt.Errorf("fault %d: got %+v, batch %+v", i, g, w)
		}
	}
	return nil
}
