// Alarm ledger: the daemon's record of when each bank first scored at
// or above the alarm threshold under the serving predictor. Feature
// state rebuilds from the replayed CE records on every restart (it is a
// pure function of them), but first-alarm times are not derivable from
// the records — they say when errors happened, not when the predictor
// first flagged the bank — so they are durable state, carried per site
// in every state head. Preserving them across restarts keeps
// lead-time accounting honest: a bank that alarmed Monday and failed
// Friday shows four days of warning even if the daemon restarted
// Wednesday.
package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/statestore"
)

// alarmLedger tracks one site's first-alarm times. It lives on the
// siteDaemon, outside any pipeline incarnation: a supervised restart
// rebuilds the engine but keeps the ledger, so alarm times never move
// backward or re-stamp.
type alarmLedger struct {
	mu    sync.Mutex
	first map[core.BankKey]int64
}

// observe scores every bank's current features and stamps now as the
// first-alarm time for banks newly at or above threshold. Already-
// alarmed banks keep their original stamp even if their score later
// drops (the window forgetting a burst does not unring the alarm).
func (l *alarmLedger) observe(banks []predict.BankFeatures, p predict.Predictor, threshold float64, now time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	added := 0
	for i := range banks {
		if _, ok := l.first[banks[i].Key]; ok {
			continue
		}
		if p.Score(&banks[i].F) >= threshold {
			if l.first == nil {
				l.first = make(map[core.BankKey]int64)
			}
			l.first[banks[i].Key] = now.UnixNano()
			added++
		}
	}
	return added
}

// size returns the number of alarmed banks.
func (l *alarmLedger) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.first)
}

// snapshot returns the ledger sorted by bank key, so marshaling is
// deterministic (round-trip tests and checkpoint diffing rely on it).
func (l *alarmLedger) snapshot() []statestore.Alarm {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]statestore.Alarm, 0, len(l.first))
	for k, at := range l.first {
		out = append(out, statestore.Alarm{Key: k, At: at})
	}
	sort.Slice(out, func(i, j int) bool { return lessBankKey(out[i].Key, out[j].Key) })
	return out
}

// replace resets the ledger to a restored snapshot.
func (l *alarmLedger) replace(entries []statestore.Alarm) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.first = make(map[core.BankKey]int64, len(entries))
	for _, e := range entries {
		l.first[e.Key] = e.At
	}
}

func lessBankKey(a, b core.BankKey) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Slot != b.Slot {
		return a.Slot < b.Slot
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Bank < b.Bank
}
