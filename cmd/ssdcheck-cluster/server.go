package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ssdcheck/internal/buildinfo"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

type errorResponse struct {
	Error string `json:"error"`
}

type versionResponse struct {
	buildinfo.Info
	Node          string  `json:"node"`
	Role          string  `json:"role"`
	Nodes         int     `json:"nodes"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// serveSubmit is POST /v1/submit for both coordinator modes: the body
// goes through the single-node daemon's codec, and the reply is the
// same compact form with each result's serving node appended.
func serveSubmit(w http.ResponseWriter, r *http.Request, submit func([]fleet.Request) ([]cluster.Result, error), unavailable func(error) bool) {
	call := fleet.GetSubmitCall()
	defer call.Release()
	if code, err := call.Read(w, r); err != nil {
		writeError(w, code, err)
		return
	}
	results, err := submit(call.Reqs)
	if err != nil {
		code := http.StatusBadRequest
		if unavailable(err) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	fleet.WriteSubmitReply(w, call, results, appendResult)
}

// appendResult appends r as the JSON object encoding/json writes: the
// embedded fleet.Result's fields, then "node".
func appendResult(buf []byte, r *cluster.Result) []byte {
	buf = fleet.AppendResultFields(buf, &r.Result)
	if r.Node != "" {
		buf = append(buf, `,"node":`...)
		buf = fleet.AppendString(buf, r.Node)
	}
	return append(buf, '}')
}

// newServer wires a coordinator into the cluster daemon's HTTP
// surface. newMember builds nodes for the join endpoint — from the
// founding fleet template in hosted mode, from a base URL in
// networked mode (addr is the endpoint's ?addr= query, empty when
// absent).
func newServer(c *cluster.Coordinator, newMember func(id, addr string) (*cluster.Node, error)) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		nodes := c.Nodes()
		inService := 0
		for _, st := range nodes {
			if st.InRing {
				inService++
			}
		}
		// Quorum-aware liveness: with no node in service the cluster
		// cannot place or serve anything (503); a partially evacuated
		// ring still serves everything that remains placed (200, but
		// flagged degraded for operators).
		status, code := "ok", http.StatusOK
		switch {
		case inService == 0:
			status, code = "unhealthy", http.StatusServiceUnavailable
		case inService < len(nodes):
			status = "degraded"
		}
		// term/leader/quorum_size mirror the replicated mode's probe
		// shape (-peers; see server_group.go) so operator tooling can
		// parse one healthz format: a standalone coordinator is its own
		// one-member quorum at term 0.
		writeJSON(w, code, map[string]any{
			"status":      status,
			"nodes":       len(nodes),
			"in_service":  inService,
			"round":       c.Round(),
			"term":        0,
			"leader":      "standalone",
			"quorum_size": 1,
		})
	})

	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, versionResponse{
			Info:          buildinfo.Get(),
			Node:          "coordinator",
			Role:          "cluster-coordinator",
			Nodes:         len(c.Nodes()),
			UptimeSeconds: time.Since(start).Seconds(),
		})
	})

	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		serveSubmit(w, r, c.Submit, func(err error) bool {
			return errors.Is(err, cluster.ErrCoordinatorClosed)
		})
	})

	mux.HandleFunc("GET /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"nodes": c.Nodes()})
	})

	mux.HandleFunc("GET /v1/cluster/nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		n := c.Node(id)
		if n == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("node %q: %w", id, cluster.ErrUnknownNode))
			return
		}
		var status *cluster.NodeStatus
		for _, st := range c.Nodes() {
			if st.ID == id {
				st := st
				status = &st
				break
			}
		}
		resp := map[string]any{"status": status}
		if m := n.Manager(); m != nil {
			resp["fleet"] = m.Metrics()
		} else {
			resp["addr"] = n.Addr() // remote member: fleet metrics live in its process
		}
		writeJSON(w, http.StatusOK, resp)
	})

	nodeAction := func(name string, fn func(id string) error) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if err := fn(id); err != nil {
				code := http.StatusInternalServerError
				switch {
				case errors.Is(err, cluster.ErrUnknownNode):
					code = http.StatusNotFound
				case errors.Is(err, cluster.ErrCoordinatorClosed):
					code = http.StatusServiceUnavailable
				}
				writeError(w, code, fmt.Errorf("%s %q: %w", name, id, err))
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"nodes": c.Nodes()})
		}
	}

	mux.HandleFunc("POST /v1/cluster/nodes/{id}/kill", nodeAction("kill", c.Kill))
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/restore", nodeAction("restore", c.Restore))
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/drain", nodeAction("drain", c.Leave))
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/join", func(w http.ResponseWriter, r *http.Request) {
		nodeAction("join", func(id string) error {
			n, err := newMember(id, r.URL.Query().Get("addr"))
			if err != nil {
				return err
			}
			if err := c.Join(n); err != nil {
				if n.Manager() != nil {
					n.Close()
				}
				return err
			}
			return nil
		})(w, r)
	})

	mux.HandleFunc("GET /v1/cluster/placement", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"placement": c.Placement(),
			"log":       c.PlacementLog(),
		})
	})

	mux.HandleFunc("GET /v1/cluster/transitions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"transitions": c.Transitions()})
	})

	mux.HandleFunc("GET /v1/cluster/breakers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"breakers": c.Breakers(),
			"log":      c.BreakerLog(),
		})
	})

	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		// The merged cross-node view: every hosted member's sampled
		// traces, stamped with the node that served each request.
		traces := c.Traces()
		if dev := r.URL.Query().Get("device"); dev != "" {
			kept := traces[:0]
			for _, rt := range traces {
				if rt.Device == dev {
					kept = append(kept, rt)
				}
			}
			traces = kept
		}
		if node := r.URL.Query().Get("node"); node != "" {
			kept := traces[:0]
			for _, rt := range traces {
				if rt.Node == node {
					kept = append(kept, rt)
				}
			}
			traces = kept
		}
		if traces == nil {
			traces = []obs.RequestTrace{}
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WriteChromeTrace(w, traces)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
	})

	mux.HandleFunc("GET /v1/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Metrics())
	})

	mux.HandleFunc("POST /v1/cluster/tick", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Tick(); err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, cluster.ErrCoordinatorClosed) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"round": c.Round(),
			"nodes": c.Nodes(),
		})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Metrics() refreshes the cluster-level gauges; WritePrometheus
		// refreshes each node's fleet gauges before merging.
		_ = c.Metrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WritePrometheus(w)
	})

	return mux
}
