package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// callHeader carries a traced call's ID to the mirror server.
const callHeader = "X-Perfbench-Call"

// mirrorServer replays ssdcheckd's submit handler in-process, where
// its stages can be timed: decode with the mirrored wire types,
// SubmitBatchInto on an identically configured fleet, and encode in
// the daemon's indented form. It keeps each call's server-side spans
// until the client collects them.
type mirrorServer struct {
	m     *fleet.Manager
	epoch time.Time
	spans sync.Map // call ID → []span
	srv   *http.Server
	done  chan error
	url   string
}

func startMirror(m *fleet.Manager, epoch time.Time) (*mirrorServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ms := &mirrorServer{m: m, epoch: epoch, done: make(chan error, 1), url: "http://" + l.Addr().String() + "/v1/submit"}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", ms.submit)
	ms.srv = &http.Server{Handler: mux}
	go func() { ms.done <- ms.srv.Serve(l) }()
	return ms, nil
}

// close stops the server and waits for it to exit.
func (ms *mirrorServer) close() error {
	err := ms.srv.Close()
	if serr := <-ms.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

func (ms *mirrorServer) ns(t time.Time) int64 { return int64(t.Sub(ms.epoch)) }

// take returns and forgets the server-side spans of call id.
func (ms *mirrorServer) take(id int64) []span {
	v, ok := ms.spans.LoadAndDelete(id)
	if !ok {
		return nil
	}
	return v.([]span)
}

// mirrorSlab is the request/result pair the handler reuses across
// calls, pooled as ssdcheckd pools its own, so the mirror allocates
// per batch what the daemon does and no more.
type mirrorSlab struct {
	reqs []fleet.Request
	out  []fleet.Result
}

var mirrorSlabs = sync.Pool{New: func() any { return &mirrorSlab{} }}

func (s *mirrorSlab) grow(n int) {
	if cap(s.reqs) < n {
		s.reqs = make([]fleet.Request, n)
		s.out = make([]fleet.Result, n)
	}
	s.reqs = s.reqs[:n]
	s.out = s.out[:n]
}

func (s *mirrorSlab) release() {
	clear(s.reqs)
	clear(s.out)
	mirrorSlabs.Put(s)
}

func (ms *mirrorServer) submit(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseInt(r.Header.Get(callHeader), 10, 64)
	t0 := time.Now()
	var body wireBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body.Requests) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	slab := mirrorSlabs.Get().(*mirrorSlab)
	defer slab.release()
	slab.grow(len(body.Requests))
	for i, sr := range body.Requests {
		op, err := parseWireOp(sr.Op)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		slab.reqs[i] = fleet.Request{DeviceID: sr.Device, Op: op, LBA: sr.LBA, Sectors: sr.Sectors}
	}
	t1 := time.Now()
	if err := ms.m.SubmitBatchInto(slab.reqs, slab.out); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	t2 := time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Results []fleet.Result `json:"results"`
	}{slab.out})
	t3 := time.Now()
	ms.spans.Store(id, []span{
		{Name: "ssdcheckd.decode", Start: ms.ns(t0), End: ms.ns(t1), Parent: 0, Call: id},
		{Name: "fleet.submit", Start: ms.ns(t1), End: ms.ns(t2), Parent: 0, Call: id},
		{Name: "ssdcheckd.encode", Start: ms.ns(t2), End: ms.ns(t3), Parent: 0, Call: id},
	})
}

// traceDaemon is daemon-batch's traced run. It measures the real
// daemon untraced and then traced for half the run each, and stops
// it. The clients' calls are then replayed twice on fresh,
// identically configured fleets: all of them in-process, whose
// results the daemon's must equal, and, for as long as the traced
// phase ran, through the mirror server, whose spans break the round
// trip into HTTP self time, decode, fleet submit and encode.
func traceDaemon(cfg config, o *outcome, hcs []*httpClient, streams []*stream, url string, live *daemonProc) (*outcome, error) {
	half := cfg.Length / 2
	o.warm(loadHTTP(hcs, url, warmup, nil, nil, "", nil))
	phU := loadHTTP(hcs, url, half, nil, nil, "", nil)
	tr := newTracer(time.Now())
	phT := loadHTTP(hcs, url, half, nil, tr, "ssdcheckd.roundtrip", nil)
	live.stop()

	calls := make([]int64, len(hcs))
	sent := make([]int64, len(hcs))
	got := digests{}
	var reqBytes, respBytes int64
	for c, hc := range hcs {
		calls[c] = hc.sent
		sent[c] = hc.sent * batchSize
		got.merge(hc.dig)
		reqBytes += hc.reqBytes
		respBytes += hc.respBytes
	}

	ref, err := fleet.New(daemonFleetConfig())
	if err != nil {
		return nil, err
	}
	want, err := replayFleet(ref, streams, sent)
	ref.Close()
	if err != nil {
		return nil, err
	}
	got.compare(want, o, "daemon")

	m, err := fleet.New(daemonFleetConfig())
	if err != nil {
		return nil, err
	}
	defer m.Close()
	trM := newTracer(time.Now())
	ms, err := startMirror(m, trM.epoch)
	if err != nil {
		return nil, err
	}
	phM := loadHTTP(newHTTPClients(streams), ms.url, half, calls, trM, "ssdcheckd.http", ms)
	if err := ms.close(); err != nil {
		return nil, fmt.Errorf("mirror server: %w", err)
	}
	if _, failed := phM.attempted(); failed > 0 {
		o.problem("mirror replay: %d predictions failed", failed)
	}

	reps, err := newReplicas(fleetSpecs())
	if err != nil {
		return nil, err
	}
	corePerPred := coreLayers(o, reps, deviceRequests(streams, sent))
	diagnoseLayer(o, reps)

	preds := o.addTracedPhases(phU, phT)
	rt := tr.stat("ssdcheckd.roundtrip")
	httpS, dec, enc, sub := trM.stat("ssdcheckd.http"), trM.stat("ssdcheckd.decode"), trM.stat("ssdcheckd.encode"), trM.stat("fleet.submit")
	o.setN("ssdcheckd.roundtrip_us", rt.meanDurUS(), int(rt.Count))
	o.setN("ssdcheckd.decode_us", dec.meanDurUS(), int(dec.Count))
	o.setN("ssdcheckd.encode_us", enc.meanDurUS(), int(enc.Count))
	o.setN("ssdcheckd.http_self_us", httpS.meanSelfUS(), int(httpS.Count))
	o.setN("ssdcheckd.req_bytes_per_pred", ratioF(reqBytes, preds), int(preds))
	o.setN("ssdcheckd.resp_bytes_per_pred", ratioF(respBytes, preds), int(preds))
	o.setN("fleet.submit_us", sub.meanDurUS(), int(sub.Count))
	o.setN("fleet.self_ns_per_pred", sub.meanDurUS()*1e3/batchSize-corePerPred, int(sub.Count)*batchSize)
	o.ingressWait(ingressSnapshot(m))

	// The breakdown's leaves: HTTP self time, decode, encode and the
	// fleet submit (which contains core and ssd).
	leaves := httpS.meanSelfUS() + dec.meanDurUS() + enc.meanDurUS() + sub.meanDurUS()
	o.breakdown(phU.meanUS(), leaves, rt.meanDurUS())
	tr.merge(trM)
	if err := tr.writeSpans(cfg.spansPath()); err != nil {
		return nil, err
	}
	return o, nil
}

// addTracedPhases records the attempt counts and wasted-work ratios of
// a traced run's two load phases, returning the predictions attempted.
func (o *outcome) addTracedPhases(phs ...phase) int64 {
	var preds, failed, retries, fallback int64
	for _, ph := range phs {
		p, f := ph.attempted()
		preds += p
		failed += f
		retries += ph.retries
		fallback += ph.fallback
	}
	o.Attempted += preds
	o.Failed += failed
	if failed > 0 {
		o.problem("%d of %d predictions failed", failed, preds)
	}
	o.setN("error_rate", ratioF(failed, preds), int(preds))
	o.setN("fleet.fallback_share", ratioF(fallback, preds-failed), int(preds-failed))
	o.setN("fleet.retries_per_pred", ratioF(retries, preds-failed), int(preds-failed))
	return preds
}

// breakdown records how far the per-layer costs fall short of the
// untraced end-to-end figure (both per call, in µs), and how much the
// tracing itself slowed the traced call. The leaves must be measured
// apart from the call they explain, so that the shortfall is what no
// layer accounts for.
func (o *outcome) breakdown(untracedUS, leavesUS, tracedUS float64) {
	if untracedUS <= 0 {
		o.problem("no untraced calls to compare the breakdown with")
		return
	}
	o.setN("bench.unaccounted_pct", 100*(untracedUS-leavesUS)/untracedUS, 1)
	o.setN("bench.trace_overhead_pct", 100*(tracedUS-untracedUS)/untracedUS, 1)
}

// ingressSnapshot merges the fleets' own time-in-ring histograms over
// every shard of every fleet.
func ingressSnapshot(ms ...*fleet.Manager) obs.HistogramSnapshot {
	var s obs.HistogramSnapshot
	for _, m := range ms {
		for i := 0; i < m.Shards(); i++ {
			h := m.Registry().HistogramScaled("fleet_ingress_wait_us", "", 1e3, obs.Label{Name: "shard", Value: strconv.Itoa(i)})
			s.Merge(h.Snapshot())
		}
	}
	return s
}

// ingressWait records the wait percentiles of s.
func (o *outcome) ingressWait(s obs.HistogramSnapshot) {
	o.setN("fleet.ingress_wait_p50_us", float64(s.Quantile(0.5))/1e3, int(s.Count))
	o.setN("fleet.ingress_wait_p99_us", float64(s.Quantile(0.99))/1e3, int(s.Count))
}

// waitPerCallUS is the ring wait recorded between two snapshots of the
// same histograms, divided by the calls made in between, in µs.
func waitPerCallUS(before, after obs.HistogramSnapshot, calls int64) float64 {
	return ratioF(after.Sum-before.Sum, calls) / 1e3
}
