package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/simclock"
)

// The /v1/submit wire forms the daemon decoded and encoded with
// encoding/json before fleet's hand-written codec took over. They are
// the oracle the codec is checked against, and the tests' client types.
type submitRequest struct {
	Device  string `json:"device"`
	Op      string `json:"op"`
	LBA     int64  `json:"lba"`
	Sectors int    `json:"sectors"`
}

type submitBody struct {
	Requests []submitRequest `json:"requests"`
}

type submitResponse struct {
	Results []fleet.Result `json:"results"`
}

// referenceDecode is the encoding/json decode of a /v1/submit body,
// with the daemon's error texts.
func referenceDecode(body []byte) ([]fleet.Request, error) {
	var sb submitBody
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sb); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(sb.Requests) == 0 {
		return nil, errors.New("empty batch")
	}
	reqs := make([]fleet.Request, 0, len(sb.Requests))
	for i, sr := range sb.Requests {
		op, err := fleet.ParseOp(sr.Op)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		reqs = append(reqs, fleet.Request{DeviceID: sr.Device, Op: op, LBA: sr.LBA, Sectors: sr.Sectors})
	}
	return reqs, nil
}

// checkDecode compares fleet.DecodeSubmit against referenceDecode.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := referenceDecode(body)
	got, err := fleet.DecodeSubmit(body, nil)
	switch {
	case errors.Is(err, fleet.ErrBatchTooLarge):
		// The codec stops at the cap without reading on, so a long
		// body the reference rejects further in may be refused for
		// its size first.
		if len(want) <= fleet.MaxSubmitBatch && (wantErr == nil || len(body) < 10*fleet.MaxSubmitBatch) {
			t.Fatalf("%q: batch too large, reference gives %d requests, err %v", body, len(want), wantErr)
		}
	case wantErr != nil || err != nil:
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, reference %v", body, err, wantErr)
		}
	case len(want) > fleet.MaxSubmitBatch:
		t.Fatalf("%q: %d requests accepted past the cap", body, len(got))
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q: decoded %+v, reference %+v", body, got, want)
	}
}

// submitBodies are the bodies the server tests post, plus shapes that
// must leave the codec's scanner for encoding/json.
var submitBodies = []string{
	`{`,
	``,
	`{"requests":[]}`,
	`{"requests":[{"device":"solo","op":"erase","lba":0,"sectors":8}]}`,
	`{"requests":[{"device":"ghost","op":"read","lba":0,"sectors":8},{"device":"solo","op":"read","lba":0,"sectors":8}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":-4096,"sectors":8},{"device":"solo","op":"read","lba":0,"sectors":8}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":99999999999,"sectors":8},{"device":"solo","op":"read","lba":0,"sectors":8}]}`,
	`{"requests":[{"device":"solo","op":"write","lba":4096,"sectors":8}]}`,
	" \n{ \"requests\" :\t[ {\"sectors\":8 ,\"lba\": 4096,\"op\":\"W\", \"device\":\"solo\"} ] }\r\n",
	`{"requests":[{"device":"solo","op":"r"},{"op":"T","lba":-0},{"op":"Write","sectors":-1}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":1}]} trailing garbage`,
	`{}`,
	`{"requests":null}`,
	`null`,
	`{"requests":[{"device":"so\"lo","op":"read"}]}`,
	`{"requests":[{"device":"solo","op":"read"}]}`,
	`{"requests":[{"device":"solo-é","op":"read"}]}`,
	"{\"requests\":[{\"device\":\"so\tlo\",\"op\":\"read\"}]}",
	"{\"requests\":[{\"device\":\"so\x7flo\",\"op\":\"read\"}]}",
	`{"requests":[{"Device":"solo","OP":"read","LBA":1}]}`,
	`{"REQUESTS":[{"device":"solo","op":"read"}]}`,
	`{"requests":[{"device":null,"op":"read","lba":null}]}`,
	`{"requests":[null]}`,
	`{"requests":[{"device":"solo","op":"read","lba":1.5}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":1e3}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":01}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":9223372036854775807}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":9223372036854775808}]}`,
	`{"requests":[{"device":"solo","op":"read","sectors":123456789012345678901}]}`,
	`{"requests":[{"device":"solo","op":"read","extra":true}]}`,
	`{"requests":[{"device":"solo","op":"read","op":"write"}]}`,
	`{"requests":[{"device":"solo","op":"read"}],"requests":[{"device":"solo","op":"trim"}]}`,
	`{"requests":[{"device":"solo","op":"read"}],"other":1}`,
	`{"requests":[{"device":"solo"}]}`,
	`{"requests":[{}]}`,
	`{"requests":[{"device":"solo","op":"read",}]}`,
	`{"requests":[{"device":"solo","op":"read"},]}`,
	`{"requests":[{"device":"solo","op":""}]}`,
	`{"requests":[{"device":"solo","op":"readx"}]}`,
	`{"requests":[{"device":"solo","op":"TRİM"}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":"1"}]}`,
	`{"requests":[{"device":1,"op":"read"}]}`,
	`{"requests":{"device":"solo"}}`,
	`[]`,
	"\ufeff{\"requests\":[]}",
	`{"requests":[{"device":"solo","op":"read","lba":-}]}`,
	`{"requests":[{"device":"solo","op":"read","lba":1`,
}

// FuzzSubmitDecode: on any body the codec gives the requests
// encoding/json gives, or the same error text.
func FuzzSubmitDecode(f *testing.F) {
	for _, body := range submitBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// checkEncode compares the codec's reply against json.NewEncoder's
// compact output for results.
func checkEncode(t *testing.T, results []fleet.Result) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(submitResponse{Results: results}); err != nil {
		t.Fatal(err)
	}
	if got := fleet.AppendSubmitReply(nil, results, fleet.AppendResult); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoded\n%s\nencoding/json\n%s", got, want.Bytes())
	}
}

// FuzzSubmitEncode: the codec's reply equals json.NewEncoder's compact
// output byte for byte, whatever the strings hold.
func FuzzSubmitEncode(f *testing.F) {
	f.Add("ssd-00-A", "", int64(120000), int64(95000), int64(1<<40), 0, uint8(1))
	f.Add("ssd-01-B", `quarantined: "x" <a&b>`, int64(-1), int64(0), int64(-7), 3, uint8(0xff))
	f.Add("\u2028dev\xff", "bad utf8 \xc3\x28 and \u2029 \x7f", int64(1), int64(2), int64(3), -2, uint8(6))
	f.Add("a<b", "c>d", int64(0), int64(0), int64(0), 0, uint8(0))
	f.Add("e&f", "g\u2029h", int64(0), int64(0), int64(0), 0, uint8(0))
	f.Add("tab\tdev", "nul\x00", int64(0), int64(0), int64(0), 0, uint8(0))
	f.Add("q\"<x>&\\\u2028\x00\x1f", "device \"x\" <failed> & \n\t\b\f \xc3\x28 é", int64(-5), int64(-1), int64(-7), -1, uint8(12))
	f.Fuzz(func(t *testing.T, dev, msg string, eet, lat, at int64, retries int, flags uint8) {
		r := fleet.Result{
			DeviceID: dev, EET: time.Duration(eet), Latency: time.Duration(lat), CompletedAt: simclock.Time(at),
			HL: flags&1 != 0, ObservedHL: flags&2 != 0, Fallback: flags&4 != 0, TimedOut: flags&8 != 0,
			Retries: retries, Error: msg,
		}
		checkEncode(t, []fleet.Result{r, {DeviceID: msg, Error: dev}})
	})
}

// soloFleet is a one-device fleet named "solo".
func soloFleet(t *testing.T) *fleet.Manager {
	t.Helper()
	m, err := fleet.New(fleet.Config{
		Devices:            []fleet.DeviceSpec{{ID: "solo", Preset: "A", Seed: 5}},
		Shards:             1,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestSubmitMatchesReference posts every seed body to the daemon and
// runs it through the encoding/json handler over a twin fleet: the
// same status, the same error reply byte for byte, and equal results.
func TestSubmitMatchesReference(t *testing.T) {
	h := newServer(soloFleet(t), nil, "")
	twin := soloFleet(t)
	for _, body := range submitBodies {
		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(body)))

		want := httptest.NewRecorder()
		reqs, err := referenceDecode([]byte(body))
		if err != nil {
			writeError(want, http.StatusBadRequest, err)
		} else {
			out := make([]fleet.Result, len(reqs))
			if err := twin.SubmitBatchInto(reqs, out); err != nil {
				t.Fatal(err)
			}
			writeJSON(want, http.StatusOK, submitResponse{Results: out})
		}

		if got.Code != want.Code {
			t.Fatalf("%q: status %d, reference %d", body, got.Code, want.Code)
		}
		if want.Code != http.StatusOK {
			if got.Body.String() != want.Body.String() {
				t.Fatalf("%q: reply %q, reference %q", body, got.Body, want.Body)
			}
			continue
		}
		var g, w submitResponse
		if err := json.Unmarshal(got.Body.Bytes(), &g); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if err := json.Unmarshal(want.Body.Bytes(), &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%q: results %+v, reference %+v", body, g, w)
		}
	}
}

// TestSubmitLimits: over a real connection, a batch past
// fleet.MaxSubmitBatch and an undeclared-length body past
// fleet.MaxSubmitBody are refused with 413 and a JSON error, and the
// daemon keeps serving.
func TestSubmitLimits(t *testing.T) {
	srv := httptest.NewServer(newServer(soloFleet(t), nil, ""))
	defer srv.Close()
	post := func(body io.Reader) int {
		resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode != http.StatusOK && e.Error == "" {
			t.Errorf("status %d without an error message", resp.StatusCode)
		}
		return resp.StatusCode
	}
	one := `{"device":"solo","op":"read","lba":0,"sectors":8}`
	batch := func(n int) string {
		return `{"requests":[` + strings.Repeat(one+",", n-1) + one + "]}"
	}
	pad := strings.Repeat(" ", fleet.MaxSubmitBody)
	for name, tc := range map[string]struct {
		body io.Reader
		want int
	}{
		"batch past the cap":          {strings.NewReader(batch(fleet.MaxSubmitBatch + 1)), http.StatusRequestEntityTooLarge},
		"chunked body past the limit": {io.MultiReader(strings.NewReader(pad + batch(1))), http.StatusRequestEntityTooLarge},
	} {
		if code := post(tc.body); code != tc.want {
			t.Errorf("%s: %d, want %d", name, code, tc.want)
		}
	}
	if code := post(strings.NewReader(batch(1))); code != http.StatusOK {
		t.Errorf("after the refusals: %d, want 200", code)
	}
}

// batchBody is a 64-request /v1/submit body over m's devices, as the
// daemon's clients send it.
func batchBody(m *fleet.Manager) []byte {
	ids := m.DeviceIDs()
	var sb submitBody
	for i := 0; i < 64; i++ {
		sb.Requests = append(sb.Requests, submitRequest{Device: ids[i%len(ids)], Op: "read", LBA: int64(i) * 4096, Sectors: 8})
	}
	body, _ := json.Marshal(sb)
	return body
}

// handlerLoop returns a function that serves body through h's
// /v1/submit into one reused recorder.
func handlerLoop(h http.Handler, body []byte) (func(), *httptest.ResponseRecorder) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", rd)
	rec := httptest.NewRecorder()
	return func() {
		rd.Reset(body)
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}, rec
}

// TestServerTimeouts: the daemon's server sets its header and idle
// timeouts, and a client that stalls mid-header is disconnected.
func TestServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the mechanism, at test speed
	l, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/submit HTTP/1.1\r\nHost: ssdcheckd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled client read %d bytes, err %v; want the server to hang up", n, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stalled client held for %v", waited)
	}
}

// BenchmarkSubmitHandler serves 64-request batches through the
// daemon's /v1/submit handler, fleet submit included.
func BenchmarkSubmitHandler(b *testing.B) {
	m, err := fleet.New(fleet.Config{
		Devices:            fleet.PresetDevices(16, nil, 99),
		Shards:             4,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	serve, _ := handlerLoop(newServer(m, nil, ""), batchBody(m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkSubmitCodec times the codec against encoding/json on a
// 64-request batch: decode, and encode of its results (encoding/json
// indented, as the daemon's other replies are).
func BenchmarkSubmitCodec(b *testing.B) {
	ids := fleet.PresetDevices(16, nil, 99)
	var sb submitBody
	results := make([]fleet.Result, 64)
	for i := range results {
		id := ids[i%len(ids)].ID
		sb.Requests = append(sb.Requests, submitRequest{Device: id, Op: "read", LBA: int64(i) * 4096, Sectors: 8})
		results[i] = fleet.Result{DeviceID: id, HL: i%7 == 0, EET: 90 * time.Microsecond, Latency: 85 * time.Microsecond, CompletedAt: simclock.Time(i) << 30}
	}
	body, _ := json.Marshal(sb)
	reqs := make([]fleet.Request, 0, 64)
	var buf []byte
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqs, _ = fleet.DecodeSubmit(body, reqs)
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = referenceDecode(body)
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = fleet.AppendSubmitReply(buf[:0], results, fleet.AppendResult)
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			enc := json.NewEncoder(&out)
			enc.SetIndent("", "  ")
			_ = enc.Encode(submitResponse{Results: results})
		}
	})
}
