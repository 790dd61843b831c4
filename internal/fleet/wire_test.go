package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ssdcheck/internal/blockdev"
)

// TestScanSubmitCanonical: canonical bodies, with any whitespace and
// field order, take the scanner rather than encoding/json.
func TestScanSubmitCanonical(t *testing.T) {
	want := []Request{
		{DeviceID: "ssd-00-A", Op: blockdev.Write, LBA: 4096, Sectors: 8},
		{DeviceID: "b", Op: blockdev.Trim, LBA: -1},
		{Op: blockdev.Read, Sectors: 123456789012345678},
	}
	for _, body := range []string{
		`{"requests":[{"device":"ssd-00-A","op":"write","lba":4096,"sectors":8},{"device":"b","op":"t","lba":-1},{"op":"READ","sectors":123456789012345678}]}`,
		" \n{ \"requests\" :\t[ {\"sectors\":8 ,\"lba\": 4096,\"op\":\"W\", \"device\":\"ssd-00-A\"} ,{\"op\":\"Trim\",\"lba\":-1,\"device\":\"b\",\"sectors\":-0},\r\n{\"sectors\":123456789012345678,\"op\":\"r\"}] } trailing",
	} {
		got, err := scanSubmit([]byte(body), nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: scanned %+v, %v; want %+v", body, got, err, want)
		}
	}
}

func TestDecodeSubmitBatchCap(t *testing.T) {
	body := func(n int, sep string) []byte {
		var b strings.Builder
		b.WriteString(`{"requests":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"device":"d","op":"r","lba":%d%s}`, i, sep)
		}
		b.WriteString("]}")
		return []byte(b.String())
	}
	// The cap itself passes on either path, the scanner's and (with an
	// unknown key) encoding/json's; one more is refused on both.
	for _, sep := range []string{"", `,"x":0`} {
		if reqs, err := DecodeSubmit(body(MaxSubmitBatch, sep), nil); err != nil || len(reqs) != MaxSubmitBatch {
			t.Errorf("sep %q: %d requests at the cap: %d, %v", sep, MaxSubmitBatch, len(reqs), err)
		}
		if _, err := DecodeSubmit(body(MaxSubmitBatch+1, sep), nil); !errors.Is(err, ErrBatchTooLarge) {
			t.Errorf("sep %q: batch past the cap: %v, want ErrBatchTooLarge", sep, err)
		}
	}
}

// TestSubmitCallLimits: bodies past MaxSubmitBody and batches past
// MaxSubmitBatch get 413, and no call left in the pool afterwards holds
// a buffer or slab past the pooling caps.
func TestSubmitCallLimits(t *testing.T) {
	read := func(body []byte, chunked bool) (int, error) {
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // hides the length
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", rd)
		c := GetSubmitCall()
		defer c.Release()
		return c.Read(httptest.NewRecorder(), req)
	}
	var big strings.Builder
	big.WriteString(`{"requests":[`)
	for i := 0; i < MaxSubmitBatch; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"device":"ssd-00-A","op":"read","lba":4096,"sectors":8}`)
	}
	big.WriteString("]}")
	atCap := []byte(big.String())
	pastCap := append(atCap[:len(atCap)-2:len(atCap)-2], `,{"op":"r"}]}`...)
	pastBody := append(bytes.Repeat([]byte(" "), MaxSubmitBody), `{"requests":[{"op":"r"}]}`...)

	for _, chunked := range []bool{false, true} {
		if code, err := read(atCap, chunked); err != nil {
			t.Errorf("chunked=%v: batch at the cap: %d %v", chunked, code, err)
		}
		if code, err := read(pastCap, chunked); code != http.StatusRequestEntityTooLarge || !errors.Is(err, ErrBatchTooLarge) {
			t.Errorf("chunked=%v: batch past the cap: %d %v, want 413", chunked, code, err)
		}
		if code, err := read(pastBody, chunked); code != http.StatusRequestEntityTooLarge || !errors.Is(err, errBodyTooLarge) {
			t.Errorf("chunked=%v: body past the limit: %d %v, want 413", chunked, code, err)
		}
	}
	for i := 0; i < 64; i++ {
		c := GetSubmitCall()
		if cap(c.buf) > maxPooledBuf || cap(c.Reqs) > maxPooledBatch || cap(c.Out) > maxPooledBatch {
			t.Fatalf("pooled call holds buf %d, reqs %d, out %d", cap(c.buf), cap(c.Reqs), cap(c.Out))
		}
	}
}
