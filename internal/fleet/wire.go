package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ssdcheck/internal/blockdev"
)

// The daemons' POST /v1/submit codec. Request bodies in the canonical
// shape {"requests":[{"device":…,"op":…,"lba":…,"sectors":…},…]} are
// scanned straight into pooled []Request slabs; anything else is handed
// to encoding/json, which therefore alone decides what other inputs are
// accepted and what every 400 says. Replies are compact JSON appended
// into a pooled buffer, byte-identical to json.NewEncoder's output for
// {"results":[…]}.

const (
	// MaxSubmitBody bounds a /v1/submit request body, in bytes. A
	// 64-request batch is ~5 KB.
	MaxSubmitBody = 1 << 20
	// MaxSubmitBatch bounds the requests in one /v1/submit batch.
	MaxSubmitBatch = 4096

	// Buffers and slabs past these caps are dropped after use rather
	// than pooled, so one large batch does not pin its memory.
	maxPooledBuf   = 64 << 10
	maxPooledBatch = 1024
)

var (
	// errBodyTooLarge rejects a body of more than MaxSubmitBody bytes.
	errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxSubmitBody)
	// ErrBatchTooLarge rejects a batch of more than MaxSubmitBatch
	// requests.
	ErrBatchTooLarge = fmt.Errorf("batch exceeds %d requests", MaxSubmitBatch)

	// errNotCanonical sends a body scanSubmit cannot take to
	// encoding/json.
	errNotCanonical = errors.New("not a canonical submit body")
)

// submitRequest is the JSON form of one Request: the op travels as
// its conventional name ("read", "write", "trim").
type submitRequest struct {
	Device  string `json:"device"`
	Op      string `json:"op"`
	LBA     int64  `json:"lba"`
	Sectors int    `json:"sectors"`
}

// submitBody is the JSON form of a /v1/submit request body.
type submitBody struct {
	Requests []submitRequest `json:"requests"`
}

// ParseOp maps an op name, or its one-letter alias, to its Op, in any
// case.
func ParseOp(s string) (blockdev.Op, error) {
	if op, ok := opNamed(strings.ToLower(s)); ok {
		return op, nil
	}
	return 0, fmt.Errorf("unknown op %q (want read, write or trim)", s)
}

// opNamed maps a lower-case op name or alias to its Op.
func opNamed(lower string) (blockdev.Op, bool) {
	switch lower {
	case "read", "r":
		return blockdev.Read, true
	case "write", "w":
		return blockdev.Write, true
	case "trim", "t":
		return blockdev.Trim, true
	}
	return 0, false
}

// SubmitCall is one /v1/submit exchange's pooled scratch: the body
// buffer, reused for the reply, and the decoded batch with room for
// its results.
type SubmitCall struct {
	buf  []byte
	Reqs []Request
	Out  []Result
}

var submitCalls = sync.Pool{New: func() any { return new(SubmitCall) }}

// GetSubmitCall takes a SubmitCall from the pool; Release returns it.
func GetSubmitCall() *SubmitCall { return submitCalls.Get().(*SubmitCall) }

// Release clears the call, so no device IDs or predictions linger,
// and pools it unless it outgrew the pooling caps.
func (c *SubmitCall) Release() {
	if cap(c.buf) > maxPooledBuf || cap(c.Reqs) > maxPooledBatch || cap(c.Out) > maxPooledBatch {
		return
	}
	clear(c.Reqs)
	clear(c.Out)
	c.buf, c.Reqs, c.Out = c.buf[:0], c.Reqs[:0], c.Out[:0]
	submitCalls.Put(c)
}

// Read reads r's body, at most MaxSubmitBody bytes, and decodes it
// into c.Reqs, sizing c.Out to match. A failure carries the status to
// answer with: 413 past MaxSubmitBody or MaxSubmitBatch, 400 for any
// other bad body.
func (c *SubmitCall) Read(w http.ResponseWriter, r *http.Request) (int, error) {
	if r.ContentLength > MaxSubmitBody {
		return http.StatusRequestEntityTooLarge, errBodyTooLarge
	}
	b := bytes.NewBuffer(c.buf[:0])
	if r.ContentLength > 0 {
		b.Grow(int(r.ContentLength))
	}
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, MaxSubmitBody))
	c.buf = b.Bytes()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, errBodyTooLarge
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	c.Reqs, err = DecodeSubmit(c.buf, c.Reqs)
	switch {
	case errors.Is(err, ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge, err
	case err != nil:
		return http.StatusBadRequest, err
	}
	if cap(c.Out) < len(c.Reqs) {
		c.Out = make([]Result, len(c.Reqs))
	}
	c.Out = c.Out[:len(c.Reqs)]
	return 0, nil
}

// WriteSubmitReply answers 200 with results as the compact submit
// reply, encoding each with one into c's buffer and sending it in one
// Write.
func WriteSubmitReply[T any](w http.ResponseWriter, c *SubmitCall, results []T, one func([]byte, *T) []byte) {
	c.buf = AppendSubmitReply(c.buf[:0], results, one)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(c.buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(c.buf)
}

// DecodeSubmit decodes a /v1/submit body into reqs[:0], reusing its
// capacity, and returns the batch. Its errors are the daemons' 400
// texts, or ErrBatchTooLarge.
func DecodeSubmit(body []byte, reqs []Request) ([]Request, error) {
	reqs, err := scanSubmit(body, reqs[:0])
	switch {
	case err == errNotCanonical:
		return decodeSlow(body, reqs[:0])
	case err == nil && len(reqs) == 0:
		err = errors.New("empty batch")
	}
	return reqs, err
}

// decodeSlow is the encoding/json path for bodies outside the
// canonical shape.
func decodeSlow(body []byte, reqs []Request) ([]Request, error) {
	var sb submitBody
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sb); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			// A type error names the Go type decoded into, which the
			// daemons have always reported as main.submitBody or
			// main.submitRequest: keep that spelling.
			err = errors.New(strings.ReplaceAll(te.Error(), "fleet.submit", "main.submit"))
		}
		return reqs, fmt.Errorf("bad request body: %w", err)
	}
	if len(sb.Requests) == 0 {
		return reqs, errors.New("empty batch")
	}
	if len(sb.Requests) > MaxSubmitBatch {
		return reqs, ErrBatchTooLarge
	}
	for i, wr := range sb.Requests {
		op, err := ParseOp(wr.Op)
		if err != nil {
			return reqs, fmt.Errorf("request %d: %w", i, err)
		}
		reqs = append(reqs, Request{DeviceID: wr.Device, Op: op, LBA: wr.LBA, Sectors: wr.Sectors})
	}
	return reqs, nil
}

// scanSubmit appends the requests of a canonical body to reqs,
// stopping with ErrBatchTooLarge once the batch passes MaxSubmitBatch.
// It returns errNotCanonical when the body strays from the canonical
// shape: whitespace and field order are free, but keys must be exact,
// strings ASCII without control bytes or escapes, ops known names, and
// numbers plain integers. Bytes after the top-level object are ignored,
// as json.Decoder ignores them.
func scanSubmit(b []byte, reqs []Request) ([]Request, error) {
	s := scanner{b: b}
	if !s.byte('{') || !s.key("requests") || !s.byte('[') {
		return reqs, errNotCanonical
	}
	if !s.byte(']') {
		for {
			if len(reqs) == MaxSubmitBatch {
				return reqs, ErrBatchTooLarge
			}
			r, ok := s.request()
			if !ok {
				return reqs, errNotCanonical
			}
			reqs = append(reqs, r)
			if s.byte(']') {
				break
			}
			if !s.byte(',') {
				return reqs, errNotCanonical
			}
		}
	}
	if !s.byte('}') {
		return reqs, errNotCanonical
	}
	return reqs, nil
}

// scanner walks a JSON body for scanSubmit.
type scanner struct {
	b []byte
	i int
}

// ws skips whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte skips whitespace and consumes c if it comes next.
func (s *scanner) byte(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of ASCII without control bytes or escapes and
// returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.byte('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key consumes `"name":`.
func (s *scanner) key(name string) bool {
	k, ok := s.str()
	return ok && string(k) == name && s.byte(':')
}

// int consumes the digits of a JSON integer, of at most 18 so it fits
// any int64. A fraction or exponent after them is left for the caller,
// which then finds no ',' or '}' and gives up on the body.
func (s *scanner) int() (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	n := s.i - start
	if n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// request consumes one request object.
func (s *scanner) request() (Request, bool) {
	var r Request
	if !s.byte('{') {
		return r, false
	}
	// A repeated key overwrites, as it does in encoding/json.
	hasOp := false
	for {
		k, ok := s.str()
		if !ok || !s.byte(':') {
			return r, false
		}
		switch string(k) {
		case "device":
			v, ok := s.str()
			if !ok {
				return r, false
			}
			r.DeviceID = string(v)
		case "op":
			v, ok := s.str()
			if !ok {
				return r, false
			}
			if r.Op, ok = scanOp(v); !ok {
				return r, false
			}
			hasOp = true
		case "lba":
			if r.LBA, ok = s.int(); !ok {
				return r, false
			}
		case "sectors":
			v, ok := s.int()
			if !ok {
				return r, false
			}
			r.Sectors = int(v)
		default:
			return r, false
		}
		if s.byte('}') {
			return r, hasOp // without an op, encoding/json owns the error
		}
		if !s.byte(',') {
			return r, false
		}
	}
}

// scanOp is ParseOp for ASCII bytes, without allocating.
func scanOp(v []byte) (blockdev.Op, bool) {
	var lower [len("write")]byte
	if len(v) > len(lower) {
		return 0, false
	}
	for i, c := range v {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	return opNamed(string(lower[:len(v)]))
}

// AppendSubmitReply appends the compact reply {"results":[…]} and its
// trailing newline, encoding each result with one. results is never
// nil, since a batch is never empty.
func AppendSubmitReply[T any](buf []byte, results []T, one func([]byte, *T) []byte) []byte {
	buf = append(buf, `{"results":[`...)
	for i := range results {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = one(buf, &results[i])
	}
	return append(buf, "]}\n"...)
}

// AppendResult appends r as the JSON object encoding/json writes.
func AppendResult(buf []byte, r *Result) []byte {
	return append(AppendResultFields(buf, r), '}')
}

// AppendResultFields appends r's JSON object without its closing
// brace, so a type embedding Result can add its own fields.
func AppendResultFields(buf []byte, r *Result) []byte {
	buf = append(buf, `{"device":`...)
	buf = AppendString(buf, r.DeviceID)
	buf = append(buf, `,"hl":`...)
	buf = strconv.AppendBool(buf, r.HL)
	buf = append(buf, `,"eet_ns":`...)
	buf = strconv.AppendInt(buf, int64(r.EET), 10)
	buf = append(buf, `,"latency_ns":`...)
	buf = strconv.AppendInt(buf, int64(r.Latency), 10)
	buf = append(buf, `,"observed_hl":`...)
	buf = strconv.AppendBool(buf, r.ObservedHL)
	buf = append(buf, `,"completed_at_ns":`...)
	buf = strconv.AppendInt(buf, int64(r.CompletedAt), 10)
	if r.Retries != 0 {
		buf = append(buf, `,"retries":`...)
		buf = strconv.AppendInt(buf, int64(r.Retries), 10)
	}
	if r.Fallback {
		buf = append(buf, `,"fallback":true`...)
	}
	if r.TimedOut {
		buf = append(buf, `,"timed_out":true`...)
	}
	if r.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = AppendString(buf, r.Error)
	}
	return buf
}

// AppendString appends s as encoding/json quotes it: ASCII that needs
// no escape directly, anything else through json.Marshal.
func AppendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s)
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
