package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// The fleet every workload serves: the daemon's defaults.
const (
	fleetDevices = 16
	fleetSeed    = 42
)

var fleetPresets = []string{"A", "B", "C", "D", "E", "F", "G", "H"}

// fleetSpecs is the 16-device, A–H, seed-42 fleet of ssdcheckd's
// defaults.
func fleetSpecs() []fleet.DeviceSpec {
	return fleet.PresetDevices(fleetDevices, fleetPresets, fleetSeed)
}

// stream is one client's request sequence: each request goes to a
// device picked by the seeded RNG and takes that device's next request
// from its own trace generator (the one trace.Generate runs), so every
// device sees a well-formed trace and the mix across devices varies
// with the seed. A stream generates without end, so no stretch of it
// repeats within a run; generating a request costs tens of
// nanoseconds, so the clients generate as they go, outside the timed
// region.
type stream struct {
	spec trace.Spec
	devs []fleet.DeviceSpec
	caps []int64
	seed uint64
}

func newStream(spec trace.Spec, devs []fleet.DeviceSpec, seed uint64) (*stream, error) {
	s := &stream{spec: spec, devs: devs, seed: seed}
	for _, d := range devs {
		cfg, err := ssd.Preset(d.Preset, d.Seed)
		if err != nil {
			return nil, err
		}
		s.caps = append(s.caps, cfg.LogicalSectors)
	}
	return s, nil
}

// cursor returns a fresh reader positioned at the stream's start;
// every cursor of a stream yields the same sequence.
func (s *stream) cursor() func() fleet.Request {
	rng := simclock.NewRNG(s.seed)
	gens := make([]*trace.Generator, len(s.devs))
	for d := range gens {
		gens[d] = trace.NewGenerator(s.spec, s.caps[d], s.seed^uint64(d+1)*0x9e3779b97f4a7c15)
	}
	return func() fleet.Request {
		d := rng.Intn(len(gens))
		r := gens[d].Next()
		return fleet.Request{DeviceID: s.devs[d].ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors}
	}
}

// clientStreams splits the fleet between the clients (client c owns a
// contiguous block of devices) and builds each client's stream.
func clientStreams(spec trace.Spec, seed uint64, nClients int) ([]*stream, error) {
	specs := fleetSpecs()
	per := len(specs) / nClients
	out := make([]*stream, nClients)
	for c := range out {
		s, err := newStream(spec, specs[c*per:(c+1)*per], seed+uint64(c)*0x5bd1e995)
		if err != nil {
			return nil, err
		}
		out[c] = s
	}
	return out, nil
}

// streamClient is one closed-loop client's side of its stream: the
// cursor it draws requests from, the calls it has made, and the
// per-device digests of the results it got back.
type streamClient struct {
	next func() fleet.Request
	sent int64 // calls made so far
	dig  digests
}

func newStreamClient(s *stream) streamClient {
	return streamClient{next: s.cursor(), dig: digests{}}
}

func newStreamClients(streams []*stream) []*streamClient {
	out := make([]*streamClient, len(streams))
	for c, s := range streams {
		sc := newStreamClient(s)
		out[c] = &sc
	}
	return out
}

// digests folds each device's results, in the order the device served
// them, into one FNV-1a hash per device: two runs fed the same
// per-device streams must agree on every device.
type digests map[string]uint64

func (d digests) add(dev string, hl bool, eet, lat int64, obsHL bool) {
	h, ok := d[dev]
	if !ok {
		h = fnvOffset
	}
	mix := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(uint64(eet), 8)
	mix(uint64(lat), 8)
	mix(b2u(hl)|b2u(obsHL)<<1, 1)
	d[dev] = h
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (d digests) addResult(r fleet.Result) {
	d.add(r.DeviceID, r.HL, int64(r.EET), int64(r.Latency), r.ObservedHL)
}

func (d digests) merge(o digests) {
	for k, v := range o {
		d[k] = v
	}
}

// compare reports every device whose digest differs from want.
func (d digests) compare(want digests, o *outcome, what string) {
	for dev, w := range want {
		if got, ok := d[dev]; !ok || got != w {
			o.problem("%s: device %s results differ from the in-process reference", what, dev)
		}
	}
	for dev := range d {
		if _, ok := want[dev]; !ok {
			o.problem("%s: device %s served results the reference never produced", what, dev)
		}
	}
}

// replayFleet feeds each client's first sent[c] requests through an
// in-process fleet in batches, returning the per-device digests.
// Requests to one device keep their order, so the digests are
// comparable with any run fed the same streams.
func replayFleet(m *fleet.Manager, streams []*stream, sent []int64) (digests, error) {
	d := digests{}
	const chunk = 1024
	reqs := make([]fleet.Request, 0, chunk)
	out := make([]fleet.Result, chunk)
	for c, s := range streams {
		next := s.cursor()
		for i := int64(0); i < sent[c]; {
			reqs = reqs[:0]
			for ; i < sent[c] && len(reqs) < chunk; i++ {
				reqs = append(reqs, next())
			}
			if err := m.SubmitBatchInto(reqs, out[:len(reqs)]); err != nil {
				return nil, err
			}
			for _, r := range out[:len(reqs)] {
				if r.Err != nil {
					return nil, fmt.Errorf("reference fleet: %w", r.Err)
				}
				d.addResult(r)
			}
		}
	}
	return d, nil
}

// runClients starts n closed-loop clients for length and waits for
// them. Each gets its own call log and, when tr is set, its own tracer,
// merged into tr once the clients stop.
func runClients(n int, length time.Duration, tr *tracer, body func(c int, l *callLog, t *tracer, deadline time.Time)) phase {
	start := time.Now()
	deadline := start.Add(length)
	logs := make([]*callLog, n)
	tracers := make([]*tracer, n)
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = newCallLog(start, length, windows)
		if tr != nil {
			tracers[c] = newTracer(tr.epoch)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, logs[c], tracers[c], deadline)
		}(c)
	}
	wg.Wait()
	if tr != nil {
		for _, t := range tracers {
			tr.merge(t)
		}
	}
	return mergeLogs(length, logs)
}

// peakRSSMB reads a process's high-water resident set (VmHWM) from
// /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
