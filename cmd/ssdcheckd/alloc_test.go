// The race detector's sync.Pool drops items at random, so allocation
// counts are pinned only without it.

//go:build !race

package main

import (
	"net/http"
	"testing"
)

// TestSubmitHandlerAllocs pins the /v1/submit handler's allocations
// for a 64-request batch: one device-ID string per request plus a
// small fixed cost for the HTTP plumbing (68 in all on Go 1.24). The
// encoding/json handler it replaced took 168.
func TestSubmitHandlerAllocs(t *testing.T) {
	m := newTestFleet(t)
	serve, rec := handlerLoop(newServer(m, nil, ""), batchBody(m))
	serve()
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/submit: %d %s", rec.Code, rec.Body)
	}
	const bound = 64 + 8
	n := testing.AllocsPerRun(200, serve)
	if n > bound {
		t.Errorf("/v1/submit handler allocates %.1f objects per 64-request batch, want <= %d", n, bound)
	}
}
