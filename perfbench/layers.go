package main

import (
	"slices"
	"sync"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/core"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// replicaCap bounds how many of each device's requests a replica
// replays; the per-op means settle long before it.
const replicaCap = 1 << 17

// requestTimeout mirrors the fleet's default health deadline: slower
// completions are withheld from the model, as the fleet does.
const requestTimeout = 250 * time.Millisecond

// replica is a standalone copy of one fleet device — the same preset,
// seed, preconditioning and full-strength diagnosis the fleet gives it
// — driven directly, so the core and ssd layers can be timed call by
// call on the stream the fleet served.
type replica struct {
	id       string
	dev      *ssd.Device
	pr       *core.Predictor
	now      simclock.Time
	diagnose time.Duration // extract.Run wall time
}

// newReplicas builds one replica per spec, diagnosing two at a time.
func newReplicas(specs []fleet.DeviceSpec) ([]*replica, error) {
	out := make([]*replica, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, clients)
	for i, s := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s fleet.DeviceSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = newReplica(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func newReplica(s fleet.DeviceSpec) (*replica, error) {
	cfg, err := ssd.Preset(s.Preset, s.Seed)
	if err != nil {
		return nil, err
	}
	dev, err := ssd.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &replica{id: s.ID, dev: dev}
	r.now = trace.Precondition(dev, s.Seed, 1.3, r.now)
	t0 := time.Now()
	feats, now, err := extract.Run(dev, r.now, extract.Opts{Seed: s.Seed ^ 0xd1a6})
	r.diagnose = time.Since(t0)
	if err != nil {
		return nil, err
	}
	r.now = now
	r.pr = core.NewPredictor(feats, s.Params)
	return r, nil
}

// opTimes accumulates per-call times of the core and ssd layers.
type opTimes struct {
	predict, observe, read, write layerStat
}

// replay runs reqs through the replica the way a fleet shard does —
// predict, submit, observe unless the completion timed out — timing
// each call. overhead is the cost of one clock read, taken off every
// timed interval.
func (r *replica) replay(reqs []blockdev.Request, ot *opTimes, overhead int64) {
	add := func(s *layerStat, d int64) {
		s.Count++
		s.Dur += max(d-overhead, 0)
	}
	for _, req := range reqs {
		t0 := time.Now()
		r.pr.Predict(req, r.now)
		t1 := time.Now()
		done := r.dev.Submit(req, r.now)
		t2 := time.Now()
		if done.Sub(r.now) < requestTimeout {
			r.pr.Observe(req, r.now, done)
			add(&ot.observe, int64(time.Since(t2)))
		}
		add(&ot.predict, int64(t1.Sub(t0)))
		if req.Op == blockdev.Write {
			add(&ot.write, int64(t2.Sub(t1)))
		} else {
			add(&ot.read, int64(t2.Sub(t1)))
		}
		r.now = done
	}
}

// clockOverhead is the median cost of one time.Now reading.
func clockOverhead() int64 {
	d := make([]int64, 4096)
	for i := range d {
		t0 := time.Now()
		d[i] = int64(time.Since(t0))
	}
	slices.Sort(d)
	return d[len(d)/2]
}

// deviceRequests regroups the first sent[c] requests of each client's
// stream by device, in the order each device served them, up to
// replicaCap per device.
func deviceRequests(streams []*stream, sent []int64) map[string][]blockdev.Request {
	out := make(map[string][]blockdev.Request)
	for c, s := range streams {
		next := s.cursor()
		for i := int64(0); i < sent[c]; i++ {
			r := next()
			if len(out[r.DeviceID]) < replicaCap {
				out[r.DeviceID] = append(out[r.DeviceID], blockdev.Request{Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
			}
		}
	}
	return out
}

// coreLayers replays the served streams on standalone replicas and
// records the core and ssd per-call times, the per-prediction cost of
// both layers together, and the median standalone diagnosis time.
func coreLayers(o *outcome, reps []*replica, byDev map[string][]blockdev.Request) (perPredNS float64) {
	overhead := clockOverhead()
	var ot opTimes
	for _, r := range reps {
		r.replay(byDev[r.id], &ot, overhead)
	}
	o.setN("core.predict_ns", ratioF(ot.predict.Dur, ot.predict.Count), int(ot.predict.Count))
	o.setN("core.observe_ns", ratioF(ot.observe.Dur, ot.observe.Count), int(ot.observe.Count))
	o.setN("ssd.read_ns", ratioF(ot.read.Dur, ot.read.Count), int(ot.read.Count))
	o.setN("ssd.write_ns", ratioF(ot.write.Dur, ot.write.Count), int(ot.write.Count))
	preds := ot.predict.Count
	return ratioF(ot.predict.Dur+ot.observe.Dur+ot.read.Dur+ot.write.Dur, preds)
}

// diagnoseLayer records the median standalone diagnosis time across
// the replicas.
func diagnoseLayer(o *outcome, reps []*replica) {
	ms := make([]float64, len(reps))
	for i, r := range reps {
		ms[i] = float64(r.diagnose) / 1e6
	}
	s := summarize(ms)
	o.set("extract.diagnose_ms", s.Median, s)
}
