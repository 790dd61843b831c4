package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// on the benchmark's monotonic clock; Parent indexes the causing span
// within the same call (-1 for a call's root); Call groups the spans
// of one client call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Call   int64  `json:"call"`
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap each other (parallel
// sub-calls) or stick out of the parent; only the union of their
// intervals clipped to the parent counts once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var covered int64
	var curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.End - parent.Start - covered
}

// layerStat accumulates one span name's durations and self times.
type layerStat struct {
	Count int64
	Dur   int64 // total duration, ns
	Self  int64 // total self time, ns
}

func (s layerStat) meanDurUS() float64  { return ratioF(s.Dur, s.Count) / 1e3 }
func (s layerStat) meanSelfUS() float64 { return ratioF(s.Self, s.Count) / 1e3 }

func ratioF(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// keepSpans bounds how many spans a tracer keeps verbatim for the
// span file; the aggregates cover every call regardless.
const keepSpans = 1 << 16

// tracer collects the spans of one client's traced calls in memory.
// Each call's tree is folded into per-name aggregates when the call
// ends, so memory stays bounded however long the traced phase runs;
// the first keepSpans spans are also retained for writing out at the
// end. A tracer belongs to one goroutine; merge combines them after
// the clients stop.
type tracer struct {
	epoch time.Time
	stats map[string]*layerStat
	kept  []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, stats: make(map[string]*layerStat)}
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// ns converts a wall instant to the tracer clock.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// finish folds one call's spans into the aggregates.
func (t *tracer) finish(spans []span) {
	for i, s := range spans {
		var kids []span
		for _, c := range spans {
			if c.Parent == i {
				kids = append(kids, c)
			}
		}
		st := t.stats[s.Name]
		if st == nil {
			st = &layerStat{}
			t.stats[s.Name] = st
		}
		st.Count++
		st.Dur += s.End - s.Start
		st.Self += selfTime(s, kids)
	}
	if room := keepSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, spans[:min(room, len(spans))]...)
	}
}

// stat returns the aggregate for a span name (zero if never seen).
func (t *tracer) stat(name string) layerStat {
	if st := t.stats[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// merge folds o's aggregates and retained spans into t.
func (t *tracer) merge(o *tracer) {
	for name, st := range o.stats {
		acc := t.stats[name]
		if acc == nil {
			acc = &layerStat{}
			t.stats[name] = acc
		}
		acc.Count += st.Count
		acc.Dur += st.Dur
		acc.Self += st.Self
	}
	if room := keepSpans - len(t.kept); room > 0 {
		t.kept = append(t.kept, o.kept[:min(room, len(o.kept))]...)
	}
}

// writeSpans writes the retained spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
