package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
)

// daemonReply encodes results the way ssdcheckd's /v1/submit does.
func daemonReply(t *testing.T, rs ...fleet.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Results []fleet.Result `json:"results"`
	}{rs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeReplyForgetsOmittedFields: the daemon omits fallback,
// retries and error when they are zero, so a reply decoded into a
// reused response must not keep the previous reply's values.
func TestDecodeReplyForgetsOmittedFields(t *testing.T) {
	var resp wireResponse
	first := daemonReply(t,
		fleet.Result{DeviceID: "ssd-00-A", HL: true, Retries: 2, Fallback: true, Error: "busy"},
		fleet.Result{DeviceID: "ssd-01-B", Fallback: true})
	if err := decodeReply(first, &resp); err != nil {
		t.Fatal(err)
	}
	if r := resp.Results[0]; !r.Fallback || r.Retries != 2 || r.Error != "busy" {
		t.Fatalf("first reply decoded as %+v", r)
	}
	if !bytes.Contains(first, []byte(`"fallback"`)) {
		t.Fatal("the first reply must carry the field")
	}
	second := daemonReply(t, fleet.Result{DeviceID: "ssd-00-A", EET: 7}, fleet.Result{DeviceID: "ssd-01-B"})
	if bytes.Contains(second, []byte(`"fallback"`)) || bytes.Contains(second, []byte(`"retries"`)) {
		t.Fatal("the second reply must leave the fields out")
	}
	if err := decodeReply(second, &resp); err != nil {
		t.Fatal(err)
	}
	want := []wireResult{{Device: "ssd-00-A", EET: 7}, {Device: "ssd-01-B"}}
	if len(resp.Results) != len(want) {
		t.Fatalf("decoded %d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestAppendBodyMatchesMarshal: the hand-written encoder sends the
// bytes json.Marshal would.
func TestAppendBodyMatchesMarshal(t *testing.T) {
	reqs := []fleet.Request{
		{DeviceID: "ssd-00-A", Op: blockdev.Read, LBA: 0, Sectors: 8},
		{DeviceID: "ssd-15-H", Op: blockdev.Write, LBA: 1<<40 + 3, Sectors: 256},
		{DeviceID: "ssd-07-H", Op: blockdev.Trim, LBA: 4096, Sectors: 1},
	}
	var body wireBody
	for _, r := range reqs {
		body.Requests = append(body.Requests, wireRequest{Device: r.DeviceID, Op: opWire(r.Op), LBA: r.LBA, Sectors: r.Sectors})
	}
	want, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendBody([]byte("stale"), reqs)[len("stale"):]; !bytes.Equal(got, want) {
		t.Errorf("appendBody = %s\nwant        %s", got, want)
	}
}
