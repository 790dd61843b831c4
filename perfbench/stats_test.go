package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},    // even the median has only 5 beyond it
		{20, 50},   // 10 beyond the median
		{199, 90},  // 199-180 = 19 beyond p90, 199-190 = 9 beyond p95
		{200, 95},  // exactly 10 beyond p95
		{999, 95},  // 999-990 = 9 beyond p99: not enough
		{1000, 99}, // exactly 10 beyond p99
		{9999, 99}, // 9999-9990 = 9 beyond p99.9
		{10000, 99.9},
		{100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := summary{Q1: 2.75, Median: 5.5, Q3: 8.25, N: 10}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if got := summarize([]float64{3, 1}); got != (summary{Q1: 0.5, Median: 2, Q3: 3.5, N: 2}) {
		t.Errorf("two values: %+v", got)
	}
	if got := summarize([]float64{7}); got != (summary{Q1: 7, Median: 7, Q3: 7, N: 1}) {
		t.Errorf("one value: %+v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		// [10,40] and [30,60] overlap: together they cover 50, not 60.
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		// A child inside another adds nothing.
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		// Only the part inside the parent counts; a child wholly
		// outside counts for nothing.
		{"sticking out", []span{{Start: 90, End: 120}, {Start: 200, End: 300}}, 90},
		{"unsorted mix", []span{{Start: 90, End: 120}, {Start: 30, End: 60}, {Start: 10, End: 40}}, 40},
		{"covering", []span{{Start: -5, End: 105}}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTracerAggregatesSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	// One call: a root with two overlapping children.
	tr.finish([]span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
	})
	other := newTracer(tr.epoch)
	other.finish([]span{{Name: "root", Start: 0, End: 50, Parent: -1}})
	tr.merge(other)
	root := tr.stat("root")
	if root.Count != 2 || root.Dur != 150 || root.Self != 50+50 {
		t.Errorf("root = %+v, want 2 calls, 150 ns, 100 ns self", root)
	}
	if a := tr.stat("a"); a.Self != 30 {
		t.Errorf("leaf self time = %d, want its whole duration 30", a.Self)
	}
	if len(tr.kept) != 4 {
		t.Errorf("kept %d spans, want 4", len(tr.kept))
	}
}

// fakeClock advances only when the ticker sleeps or a tick runs.
type fakeClock struct{ t time.Time }

func (f *fakeClock) clock() clock {
	return clock{
		now:   func() time.Time { return f.t },
		sleep: func(d time.Duration) { f.t = f.t.Add(d) },
	}
}

func TestOpenLoopDueTimeAndLateness(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	const ms = time.Millisecond
	// Service times per tick: the second tick stalls for 25 ms.
	service := []time.Duration{1 * ms, 25 * ms, 2 * ms, 2 * ms, 1 * ms}
	stop := make(chan struct{})
	calls := 0
	ticks := openLoop(fc.clock(), 10*ms, stop, func() error {
		fc.t = fc.t.Add(service[calls])
		calls++
		if calls == len(service) {
			close(stop)
		}
		return nil
	})
	want := []tick{
		{Due: 0, Start: 0, End: 1 * ms},
		{Due: 10 * ms, Start: 10 * ms, End: 35 * ms},
		// Due at 20 and 30 but the stall held the generator until 35:
		// the ticks run back to back, late, and are not skipped.
		{Due: 20 * ms, Start: 35 * ms, End: 37 * ms},
		{Due: 30 * ms, Start: 37 * ms, End: 39 * ms},
		// Caught up: waits for its due time again.
		{Due: 40 * ms, Start: 40 * ms, End: 41 * ms},
	}
	if len(ticks) != len(want) {
		t.Fatalf("%d ticks, want %d", len(ticks), len(want))
	}
	for i, w := range want {
		if ticks[i] != w {
			t.Errorf("tick %d = %+v, want %+v", i, ticks[i], w)
		}
	}
	// Latency is timed from the due time, so the stall is charged to
	// the ticks queued behind it too.
	if got := ticks[2].Latency(); got != 17*ms {
		t.Errorf("tick 2 latency = %v, want 17ms", got)
	}
	if got := ticks[2].Late(); got != 15*ms {
		t.Errorf("tick 2 lateness = %v, want 15ms", got)
	}
	if got := ticks[2].Service(); got != 2*ms {
		t.Errorf("tick 2 service = %v, want 2ms", got)
	}
}

func TestRefusedCallsMissEveryLatencyMetric(t *testing.T) {
	start := time.Unix(0, 0)
	l := newCallLog(start, 10*time.Second, 1)
	// 98 calls of 64 predictions succeed in 1 ms; 2 are refused, one
	// of them only partly failed.
	for i := 0; i < 98; i++ {
		l.record(start.Add(time.Second), time.Millisecond, 64, 0)
	}
	l.record(start.Add(time.Second), 5*time.Microsecond, 64, 64)
	l.record(start.Add(time.Second), 5*time.Microsecond, 64, 1)
	p := mergeLogs(10*time.Second, []*callLog{l})

	preds, failed := p.attempted()
	if preds != 100*64 || failed != 65 {
		t.Errorf("attempted %d failed %d, want 6400 and 65", preds, failed)
	}
	// Only successful predictions count as throughput.
	if got := p.throughput()[0]; got != float64(6400-65)/10 {
		t.Errorf("throughput = %v", got)
	}
	// The refused calls sit above every real latency: the p99 lands on
	// one of them, the median does not, and their fast failure does
	// not pull the mean down.
	if got := p.latencyUS(99).Median; !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% refused = %v, want +Inf", got)
	}
	if got := p.latencyUS(50).Median; math.Abs(got-1000) > 10 {
		t.Errorf("p50 = %vµs, want ~1000", got)
	}
	if got := p.meanUS(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("mean = %vµs, want 1000", got)
	}

	o := newOutcome()
	o.addPhase(p)
	if len(o.Problems) == 0 || o.Failed != 65 || o.Attempted != 6400 {
		t.Errorf("outcome %+v: failures must fail the run and be counted", o)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h latHist
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v) * 10)
	}
	for _, p := range []float64{1, 50, 90, 99, 99.9} {
		want := p / 100 * 1e6
		if got := h.percentile(p); math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%v = %v, want %v within 1%%", p, got, want)
		}
	}
	if got, want := h.percentile(100), 1e6; math.Abs(got-want)/want > 0.01 {
		t.Errorf("max = %v", got)
	}
	var exact latHist
	exact.add(7)
	if got := exact.percentile(50); got != 7.5 {
		t.Errorf("small values are exact to the ns: %v", got)
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q in BENCHMARK.json is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workloads), len(workloads))
	}
}

// TestLayerMapCoversEveryLayerMetric keeps layers.json, the map from
// per-layer metrics to the end-to-end metrics they should move, in
// step with the metrics printed.
func TestLayerMapCoversEveryLayerMetric(t *testing.T) {
	buf, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Layers []struct {
			Metric string
			Moves  []string
			On     []string
		}
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, l := range m.Layers {
		seen[l.Metric]++
		if len(l.On) == 0 {
			t.Errorf("%s: no workload named", l.Metric)
		}
	}
	for _, d := range perLayer {
		if seen[d.Name] != 1 {
			t.Errorf("%s appears %d times in layers.json, want once", d.Name, seen[d.Name])
		}
		delete(seen, d.Name)
	}
	for name := range seen {
		t.Errorf("layers.json maps %s, which is not printed", name)
	}
}
