package main

import (
	"time"

	"ssdcheck"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/trace"
)

// embedded-single: an in-process fleet at 8 shards, driven by two
// goroutines that each own eight devices and call Fleet.Submit once
// per request of the write-heavy TPCE trace.

const embeddedShards = 8

// loadSubmit drives the clients against f for length; with a tracer
// each call records one fleet.submit span.
func loadSubmit(f *ssdcheck.Fleet, scs []*streamClient, length time.Duration, tr *tracer) phase {
	return runClients(len(scs), length, tr, func(c int, l *callLog, t *tracer, deadline time.Time) {
		sc := scs[c]
		var sp [1]span
		for time.Now().Before(deadline) {
			r := sc.next()
			sc.sent++
			t0 := time.Now()
			res, err := f.Submit(r.DeviceID, r.Op, r.LBA, r.Sectors)
			t1 := time.Now()
			failed := 0
			if err != nil || res.DeviceID != r.DeviceID {
				failed = 1
			} else {
				sc.dig.addResult(res)
				l.outcome(res.HL, res.ObservedHL, res.Retries, res.Fallback)
			}
			l.record(t1, t1.Sub(t0), 1, failed)
			if t != nil {
				sp[0] = span{Name: "fleet.submit", Start: t.ns(t0), End: t.ns(t1), Parent: -1, Call: int64(c)<<40 | sc.sent}
				t.finish(sp[:])
			}
		}
	})
}

// timedFleet builds the embedded fleet, with a registry of its own,
// and returns the build time.
func timedFleet() (*ssdcheck.Fleet, float64, error) {
	cfg := ssdcheck.FleetConfig{Devices: fleetSpecs(), Shards: embeddedShards, Registry: obs.NewRegistry()}
	t0 := time.Now()
	f, err := ssdcheck.NewFleet(cfg)
	return f, time.Since(t0).Seconds(), err
}

func runEmbedded(cfg config) (*outcome, error) {
	o := newOutcome()
	// Generated as the clients go: a Submit costs microseconds, a
	// generated request tens of nanoseconds, and an endless stream
	// keeps any one seed's quirks from repeating through a run.
	streams, err := clientStreams(trace.TPCE, cfg.Seed, clients)
	if err != nil {
		return nil, err
	}
	scs := newStreamClients(streams)

	f, setup, err := timedFleet()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	setups := []float64{setup}

	var phU, phT phase
	var tr *tracer
	var wait0, wait1 obs.HistogramSnapshot
	o.warm(loadSubmit(f, scs, warmup, nil))
	if cfg.Trace {
		wait0 = ingressSnapshot(f)
		phU = loadSubmit(f, scs, cfg.Length/2, nil)
		wait1 = ingressSnapshot(f)
		tr = newTracer(time.Now())
		phT = loadSubmit(f, scs, cfg.Length/2, tr)
	} else {
		phU = loadSubmit(f, scs, cfg.Length, nil)
		o.addPhase(phU)
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		o.setN("peak_rss_mb", rss, 1)
	}
	f.Close()

	// Check: a fresh fleet fed the same per-device streams must serve
	// identical results. Building it is also the second setup.
	sent := make([]int64, len(scs))
	got := digests{}
	for c, sc := range scs {
		sent[c] = sc.sent
		got.merge(sc.dig)
	}
	ref, setup, err := timedFleet()
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup)
	want, err := replayFleet(ref, streams, sent)
	ref.Close()
	if err != nil {
		return nil, err
	}
	got.compare(want, o, "embedded")

	if !cfg.Trace {
		for len(setups) < setupRepeats {
			g, setup, err := timedFleet()
			if err != nil {
				return nil, err
			}
			g.Close()
			setups = append(setups, setup)
		}
		s := summarize(setups)
		o.set("setup_s", s.Median, s)
		return o, nil
	}

	reps, err := newReplicas(fleetSpecs())
	if err != nil {
		return nil, err
	}
	corePerPred := coreLayers(o, reps, deviceRequests(streams, sent))
	diagnoseLayer(o, reps)
	o.addTracedPhases(phU, phT)
	sub := tr.stat("fleet.submit")
	o.setN("fleet.submit_us", sub.meanDurUS(), int(sub.Count))
	o.setN("fleet.self_ns_per_pred", sub.meanDurUS()*1e3-corePerPred, int(sub.Count))
	o.ingressWait(ingressSnapshot(f))
	// The leaves of one Submit: its wait in the shard's ingress ring,
	// from the fleet's own histogram over the untraced phase, and the
	// replicas' core and ssd time. What is left is the fleet's own
	// handoff and shard service, which nothing times from outside.
	o.breakdown(phU.meanUS(), waitPerCallUS(wait0, wait1, phU.all.n)+corePerPred/1e3, sub.meanDurUS())
	if err := tr.writeSpans(cfg.spansPath()); err != nil {
		return nil, err
	}
	return o, nil
}
