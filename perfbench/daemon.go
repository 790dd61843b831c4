package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/trace"
)

// daemon-batch: the real ssdcheckd, built from this tree and run with
// its defaults, driven over HTTP by two closed-loop clients, each
// posting 64-request Exch batches to the eight devices it owns over
// one keep-alive connection.

const batchSize = 64

// Mirrored wire types of ssdcheckd's /v1/submit.
type wireRequest struct {
	Device  string `json:"device"`
	Op      string `json:"op"`
	LBA     int64  `json:"lba"`
	Sectors int    `json:"sectors"`
}

type wireBody struct {
	Requests []wireRequest `json:"requests"`
}

type wireResult struct {
	Device     string `json:"device"`
	HL         bool   `json:"hl"`
	EET        int64  `json:"eet_ns"`
	Latency    int64  `json:"latency_ns"`
	ObservedHL bool   `json:"observed_hl"`
	Retries    int    `json:"retries"`
	Fallback   bool   `json:"fallback"`
	Error      string `json:"error"`
}

type wireResponse struct {
	Results []wireResult `json:"results"`
}

func opWire(op blockdev.Op) string {
	switch op {
	case blockdev.Write:
		return "write"
	case blockdev.Trim:
		return "trim"
	default:
		return "read"
	}
}

func parseWireOp(s string) (blockdev.Op, error) {
	switch s {
	case "read":
		return blockdev.Read, nil
	case "write":
		return blockdev.Write, nil
	case "trim":
		return blockdev.Trim, nil
	}
	return 0, fmt.Errorf("unknown op %q", s)
}

// appendBody appends the /v1/submit body for reqs to buf. It writes
// exactly the bytes json.Marshal writes for the same wireBody (device
// IDs are plain ASCII, so strconv's quoting is JSON's), at a fraction
// of the cost, so encoding each batch just before it is sent takes
// little from the daemon's share of the cores.
func appendBody(buf []byte, reqs []fleet.Request) []byte {
	buf = append(buf, `{"requests":[`...)
	for i, r := range reqs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"device":`...)
		buf = strconv.AppendQuote(buf, r.DeviceID)
		buf = append(buf, `,"op":"`...)
		buf = append(buf, opWire(r.Op)...)
		buf = append(buf, `","lba":`...)
		buf = strconv.AppendInt(buf, r.LBA, 10)
		buf = append(buf, `,"sectors":`...)
		buf = strconv.AppendInt(buf, int64(r.Sectors), 10)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// daemonProc is a running ssdcheckd child.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	once   sync.Once
}

// startDaemon execs ssdcheckd with its defaults on a free loopback
// port and returns once /healthz answers 200, with the time from exec
// to that first 200.
func startDaemon(bin string) (*daemonProc, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ssdcheckd: %w", err)
	}
	p := &daemonProc{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { p.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for time.Since(start) < 60*time.Second {
		select {
		case err := <-p.exited:
			return nil, 0, fmt.Errorf("ssdcheckd exited during startup: %v", err)
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, 0, errors.New("ssdcheckd not healthy within 60s")
}

// stop asks the daemon to drain and exit, killing it if it lingers,
// and waits for the process to end.
func (p *daemonProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	})
}

func (p *daemonProc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill()
		<-p.exited
	})
}

func (p *daemonProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// httpClient is one closed-loop client: its stream, a single
// keep-alive connection, the batch in flight, and what it has sent and
// received so far.
type httpClient struct {
	streamClient
	hc   *http.Client
	reqs []fleet.Request // the batch in flight
	body []byte          // its encoded body

	reqBytes, respBytes int64
	buf                 bytes.Buffer
	resp                wireResponse
}

func newHTTPClients(streams []*stream) []*httpClient {
	out := make([]*httpClient, len(streams))
	for c, s := range streams {
		out[c] = &httpClient{
			streamClient: newStreamClient(s),
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			}},
			reqs: make([]fleet.Request, batchSize),
		}
	}
	return out
}

// prepare generates and encodes the client's next batch.
func (hc *httpClient) prepare() {
	for k := range hc.reqs {
		hc.reqs[k] = hc.next()
	}
	hc.body = appendBody(hc.body[:0], hc.reqs)
	hc.sent++
}

// post sends the prepared batch and reads the reply into the client's
// buffer. callID, when set, tags the request for a mirror server's
// spans.
func (hc *httpClient) post(url, callID string) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(hc.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if callID != "" {
		req.Header.Set(callHeader, callID)
	}
	resp, err := hc.hc.Do(req)
	if err != nil {
		return err
	}
	hc.buf.Reset()
	_, err = hc.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(hc.buf.Bytes()))
	}
	hc.reqBytes += int64(len(hc.body))
	hc.respBytes += int64(hc.buf.Len())
	return nil
}

// decodeReply decodes a /v1/submit reply into resp, reusing its
// results slice. The daemon leaves out false and zero optional fields
// (fallback, retries, error), and encoding/json keeps whatever a
// reused element held for a field the reply leaves out, so the
// elements are zeroed first.
func decodeReply(buf []byte, resp *wireResponse) error {
	clear(resp.Results[:cap(resp.Results)])
	resp.Results = resp.Results[:0]
	return json.Unmarshal(buf, resp)
}

// fold decodes the last reply into the digests and l, returning how
// many of the batch's predictions failed.
func (hc *httpClient) fold(l *callLog) int {
	if err := decodeReply(hc.buf.Bytes(), &hc.resp); err != nil || len(hc.resp.Results) != batchSize {
		return batchSize
	}
	failed := 0
	for k, r := range hc.resp.Results {
		if r.Error != "" || r.Device != hc.reqs[k].DeviceID {
			failed++
			continue
		}
		hc.dig.add(r.Device, r.HL, r.EET, r.Latency, r.ObservedHL)
		l.outcome(r.HL, r.ObservedHL, r.Retries, r.Fallback)
	}
	return failed
}

// loadHTTP drives the clients closed-loop against url for length, or
// until client c has made limit[c] calls when limit is set. Each batch
// is generated and encoded before its call is timed. With a tracer
// each call records a root span named spanName, plus the server-side
// spans a mirror server (mir, may be nil) kept for it.
func loadHTTP(hcs []*httpClient, url string, length time.Duration, limit []int64, tr *tracer, spanName string, mir *mirrorServer) phase {
	return runClients(len(hcs), length, tr, func(c int, l *callLog, t *tracer, deadline time.Time) {
		hc := hcs[c]
		for time.Now().Before(deadline) && (limit == nil || hc.sent < limit[c]) {
			hc.prepare()
			id := int64(c)<<40 | hc.sent
			callID := ""
			if mir != nil {
				callID = strconv.FormatInt(id, 10)
			}
			t0 := time.Now()
			err := hc.post(url, callID)
			t1 := time.Now()
			failed := batchSize
			if err == nil {
				failed = hc.fold(l)
			}
			l.record(t1, t1.Sub(t0), batchSize, failed)
			if t != nil {
				spans := []span{{Name: spanName, Start: t.ns(t0), End: t.ns(t1), Parent: -1, Call: id}}
				if mir != nil {
					spans = append(spans, mir.take(id)...)
				}
				t.finish(spans)
			}
		}
	})
}

// daemonFleetConfig mirrors the fleet ssdcheckd builds from its flag
// defaults.
func daemonFleetConfig() fleet.Config {
	reg := obs.NewRegistry()
	cfg := fleet.Config{
		Devices:  fleetSpecs(),
		Registry: reg,
		Recorder: obs.Observer{Reg: reg},
	}
	cfg.Health.ProbeInterval = 5 * time.Second
	return cfg
}

func runDaemon(cfg config) (*outcome, error) {
	o := newOutcome()
	streams, err := clientStreams(trace.Exch, cfg.Seed, clients)
	if err != nil {
		return nil, err
	}
	hcs := newHTTPClients(streams)

	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	// Each setup starts from nothing running; the last daemon serves
	// the load.
	var setups []float64
	var live *daemonProc
	for i := 0; i < repeats; i++ {
		if live != nil {
			live.stop()
		}
		p, d, err := startDaemon(cfg.Daemon)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		live = p
	}
	defer live.stop()
	url := live.base + "/v1/submit"

	if !cfg.Trace {
		o.warm(loadHTTP(hcs, url, warmup, nil, nil, "", nil))
		ph := loadHTTP(hcs, url, cfg.Length, nil, nil, "", nil)
		o.addPhase(ph)
		rss, err := peakRSSMB(live.pid())
		if err != nil {
			return nil, err
		}
		live.stop()
		o.setN("peak_rss_mb", rss, 1)
		s := summarize(setups)
		o.set("setup_s", s.Median, s)

		m, err := fleet.New(daemonFleetConfig())
		if err != nil {
			return nil, err
		}
		defer m.Close()
		sent := make([]int64, len(hcs))
		got := digests{}
		for c, hc := range hcs {
			sent[c] = hc.sent * batchSize
			got.merge(hc.dig)
		}
		want, err := replayFleet(m, streams, sent)
		if err != nil {
			return nil, err
		}
		got.compare(want, o, "daemon")
		return o, nil
	}
	return traceDaemon(cfg, o, hcs, streams, url, live)
}
