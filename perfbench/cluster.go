package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ssdcheck"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/trace"
)

// cluster-durable: a 3-replica coordination group with fsynced,
// file-backed logs over 3 nodes, two closed-loop clients sending
// 64-request Exch batches through Group.Submit, and an open-loop
// ticker driving Group.Tick every 10 ms.
//
// Two clients, not one: a tick holds the group lock, and with one
// client about a hundred calls fit in each 10 ms, so the one call a
// tick blocks is ~1% of calls and the p99 sits on the edge between
// blocked and unblocked calls, swinging threefold between runs. With
// two, both block on every tick and the p99 measures the blocked
// calls' wait.

const tickInterval = 10 * time.Millisecond

// timedGroup builds the group in a fresh directory and returns the
// build time.
func timedGroup(dir string) (*ssdcheck.ClusterGroup, float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	g, err := ssdcheck.NewClusterGroup(ssdcheck.ClusterGroupConfig{
		Replicas: 3,
		Nodes:    3,
		Devices:  fleetSpecs(),
		Dir:      dir,
	})
	return g, time.Since(t0).Seconds(), err
}

// loadGroup drives the closed-loop clients against g for length, each
// generating its next batch before the call is timed; with a tracer
// each call records one cluster.submit span.
func loadGroup(g *ssdcheck.ClusterGroup, gcs []*streamClient, length time.Duration, tr *tracer) phase {
	return runClients(len(gcs), length, tr, func(c int, l *callLog, t *tracer, deadline time.Time) {
		gc := gcs[c]
		reqs := make([]fleet.Request, batchSize)
		var sp [1]span
		for time.Now().Before(deadline) {
			for k := range reqs {
				reqs[k] = gc.next()
			}
			gc.sent++
			t0 := time.Now()
			res, err := g.Submit(reqs)
			t1 := time.Now()
			failed := 0
			if err != nil || len(res) != batchSize {
				failed = batchSize
			} else {
				for k, r := range res {
					if r.Err != nil || r.DeviceID != reqs[k].DeviceID {
						failed++
						continue
					}
					l.outcome(r.HL, r.ObservedHL, r.Retries, r.Fallback)
				}
			}
			l.record(t1, t1.Sub(t0), batchSize, failed)
			if t != nil {
				sp[0] = span{Name: "cluster.submit", Start: t.ns(t0), End: t.ns(t1), Parent: -1, Call: int64(c)<<40 | gc.sent}
				t.finish(sp[:])
			}
		}
	})
}

// nodeFleets returns the fleet behind each of g's nodes.
func nodeFleets(g *ssdcheck.ClusterGroup) []*fleet.Manager {
	var ms []*fleet.Manager
	for _, n := range g.Nodes() {
		ms = append(ms, n.Manager())
	}
	return ms
}

func runCluster(cfg config) (*outcome, error) {
	o := newOutcome()
	streams, err := clientStreams(trace.Exch, cfg.Seed, clients)
	if err != nil {
		return nil, err
	}
	gcs := newStreamClients(streams)
	base := filepath.Join(cfg.Work, fmt.Sprintf("cluster-%d", os.Getpid()))
	defer os.RemoveAll(base)

	dir := filepath.Join(base, "0")
	g, setup, err := timedGroup(dir)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	setups := []float64{setup}
	elections0 := g.Elections()

	stop := make(chan struct{})
	ticked := make(chan []tick, 1)
	go func() { ticked <- openLoop(wallClock, tickInterval, stop, g.Tick) }()

	var phU, phT phase
	var tr *tracer
	var wait0, wait1 obs.HistogramSnapshot
	o.warm(loadGroup(g, gcs, warmup, nil))
	if cfg.Trace {
		wait0 = ingressSnapshot(nodeFleets(g)...)
		phU = loadGroup(g, gcs, cfg.Length/2, nil)
		wait1 = ingressSnapshot(nodeFleets(g)...)
		tr = newTracer(time.Now())
		phT = loadGroup(g, gcs, cfg.Length/2, tr)
	} else {
		phU = loadGroup(g, gcs, cfg.Length, nil)
	}
	close(stop)
	ticks := <-ticked
	if !cfg.Trace {
		o.addPhase(phU)
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		o.setN("peak_rss_mb", rss, 1)
	}

	commits := make([]int64, 0, len(ticks))
	service := make([]int64, 0, len(ticks))
	late := make([]int64, 0, len(ticks))
	for _, t := range ticks {
		if t.Err != nil {
			o.problem("tick at %v: %v", t.Due, t.Err)
		}
		commits = append(commits, int64(t.Latency()))
		service = append(service, int64(t.Service()))
		late = append(late, int64(t.Late()))
	}
	if tp := tailPercentile(len(ticks)); cfg.Trace && tp < 99 {
		o.problem("only %d ticks: commit p99 needs %d beyond it", len(ticks), minBeyond)
	}
	slices.Sort(commits)
	slices.Sort(late)

	restart, entries, logBytes := checkGroup(g, dir, o)
	elections := g.Elections() - elections0
	if elections != 0 {
		o.problem("%d leadership elections during the run", elections)
	}
	fencing := g.FencingRejections()
	if fencing != 0 {
		o.problem("%d fencing rejections during the run", fencing)
	}
	lag := g.Registry().HistogramScaled("ssdcheck_cluster_replication_lag_entries", "", 1).Snapshot()
	wait := ingressSnapshot(nodeFleets(g)...)
	g.Close()

	if !cfg.Trace {
		for i := 1; i < setupRepeats; i++ {
			g2, setup, err := timedGroup(filepath.Join(base, fmt.Sprint(i)))
			if err != nil {
				return nil, err
			}
			g2.Close()
			setups = append(setups, setup)
		}
		st := summarize(setups)
		o.set("setup_s", st.Median, st)
		return o, nil
	}

	reps, err := newReplicas(fleetSpecs())
	if err != nil {
		return nil, err
	}
	sent := make([]int64, len(gcs))
	for c, gc := range gcs {
		sent[c] = gc.sent * batchSize
	}
	corePerPred := coreLayers(o, reps, deviceRequests(streams, sent))
	diagnoseLayer(o, reps)
	o.addTracedPhases(phU, phT)
	o.ingressWait(wait)
	o.setN("commit_p50_us", float64(percentile(commits, 50))/1e3, len(commits))
	o.setN("commit_p99_us", float64(percentile(commits, 99))/1e3, len(commits))
	sub := tr.stat("cluster.submit")
	o.setN("cluster.submit_us", sub.meanDurUS(), int(sub.Count))
	var svc int64
	for _, v := range service {
		svc += v
	}
	o.setN("cluster.tick_service_us", ratioF(svc, int64(len(service)))/1e3, len(service))
	o.setN("cluster.tick_late_p99_us", float64(percentile(late, 99))/1e3, len(late))
	o.setN("cluster.replication_lag_p99", float64(lag.Quantile(0.99)), int(lag.Count))
	o.setN("cluster.log_entries", float64(entries), 1)
	o.setN("cluster.log_bytes_per_entry", ratioF(logBytes, entries), int(entries))
	o.setN("cluster.restart_ms", restart, 1)
	o.setN("cluster.elections", float64(elections), 1)
	o.setN("cluster.fencing_rejections", float64(fencing), 1)
	// The leaves of one Group.Submit: the node fleets' ingress-ring
	// wait over the untraced phase, from their own histograms, and the
	// replicas' core and ssd time for its 64 predictions. What is left
	// is the group lock, coordinator routing, the loopback transport
	// and node API, and the fleets' handoff and shard service.
	o.breakdown(phU.meanUS(), waitPerCallUS(wait0, wait1, phU.all.n)+corePerPred*batchSize/1e3, sub.meanDurUS())
	if err := tr.writeSpans(cfg.spansPath()); err != nil {
		return nil, err
	}
	return o, nil
}

// checkGroup verifies the replicated log after the load: the three
// committed logs are identical, and a follower crashed and restarted
// from its directory holds every committed entry before the next
// tick. It returns the restart time (ms), the leader's log length and
// the leader's on-disk log size.
func checkGroup(g *ssdcheck.ClusterGroup, dir string, o *outcome) (restartMS float64, entries, logBytes int64) {
	leader := g.LeaderID()
	if leader == "" {
		o.problem("no leader after the run")
		return 0, 0, 0
	}
	lead, err := json.Marshal(g.ReplicaLog(leader))
	if err != nil {
		o.problem("encoding leader log: %v", err)
		return 0, 0, 0
	}
	var commit int64
	follower := ""
	for _, r := range g.Status().Replicas {
		if r.ID == leader {
			commit = r.Commit
		} else if follower == "" {
			follower = r.ID
		}
		if b, err := json.Marshal(g.ReplicaLog(r.ID)); err != nil || string(b) != string(lead) {
			o.problem("replica %s log differs from leader %s", r.ID, leader)
		}
	}
	entries = int64(len(g.ReplicaLog(leader)))
	if commit != entries {
		o.problem("leader committed %d of %d entries", commit, entries)
	}
	if fi, err := os.Stat(filepath.Join(dir, leader, "log.jsonl")); err == nil {
		logBytes = fi.Size()
	} else {
		o.problem("leader log file: %v", err)
	}

	t0 := time.Now()
	if err := g.Crash(follower); err != nil {
		o.problem("crashing %s: %v", follower, err)
		return 0, entries, logBytes
	}
	if err := g.Restart(follower); err != nil {
		o.problem("restarting %s: %v", follower, err)
		return 0, entries, logBytes
	}
	restartMS = float64(time.Since(t0)) / 1e6
	got := g.ReplicaLog(follower)
	if int64(len(got)) < commit {
		o.problem("restarted %s recovered %d of %d committed entries", follower, len(got), commit)
	} else if b, err := json.Marshal(got[:commit]); err != nil || string(b) != string(lead) {
		o.problem("restarted %s log differs from the committed log", follower)
	}
	if err := g.Tick(); err != nil {
		o.problem("tick after restart: %v", err)
	}
	return restartMS, entries, logBytes
}
