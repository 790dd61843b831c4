package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"ssdcheck/internal/buildinfo"
	"ssdcheck/internal/cluster"
)

// newGroupServer wires a replicated coordinator group into the HTTP
// surface. Coordinator-backed endpoints resolve the current leader on
// every request — after a failover the same URLs keep answering from
// whichever replica now holds the lease; during an election they
// answer 503 with a retryable error body.
//
// Replication-specific endpoints:
//
//	GET  /v1/coordinator/status   term, leader, quorum, per-replica log state
//	GET  /healthz                 liveness plus term, leader ID and quorum size
func newGroupServer(g *cluster.Group) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()

	// leader resolves the coordinator endpoint for this request; a
	// leaderless window (election in progress) answers 503.
	leader := func(w http.ResponseWriter) *cluster.Coordinator {
		c := g.Leader()
		if c == nil {
			writeError(w, http.StatusServiceUnavailable, cluster.ErrNoLeader)
			return nil
		}
		return c
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := g.Status()
		status, code := "ok", http.StatusOK
		if st.Leader == "" {
			status, code = "electing", http.StatusServiceUnavailable
		}
		writeJSON(w, code, map[string]any{
			"status":      status,
			"term":        st.Term,
			"leader":      st.Leader,
			"quorum_size": st.Quorum,
			"replicas":    len(st.Replicas),
			"round":       st.Round,
		})
	})

	mux.HandleFunc("GET /v1/coordinator/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, g.Status())
	})

	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, versionResponse{
			Info:          buildinfo.Get(),
			Node:          g.LeaderID(),
			Role:          "replicated-coordinator",
			Nodes:         len(g.Nodes()),
			UptimeSeconds: time.Since(start).Seconds(),
		})
	})

	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		serveSubmit(w, r, g.Submit, func(err error) bool {
			return errors.Is(err, cluster.ErrNoLeader) || errors.Is(err, cluster.ErrNoQuorum) ||
				errors.Is(err, cluster.ErrCoordinatorClosed)
		})
	})

	mux.HandleFunc("GET /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		c := leader(w)
		if c == nil {
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"nodes": c.Nodes()})
	})

	mux.HandleFunc("GET /v1/cluster/placement", func(w http.ResponseWriter, r *http.Request) {
		c := leader(w)
		if c == nil {
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"placement": c.Placement(),
			"log":       c.PlacementLog(),
		})
	})

	mux.HandleFunc("GET /v1/cluster/transitions", func(w http.ResponseWriter, r *http.Request) {
		c := leader(w)
		if c == nil {
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"transitions": c.Transitions()})
	})

	mux.HandleFunc("GET /v1/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		c := leader(w)
		if c == nil {
			return
		}
		writeJSON(w, http.StatusOK, c.Metrics())
	})

	mux.HandleFunc("POST /v1/cluster/tick", func(w http.ResponseWriter, r *http.Request) {
		if err := g.Tick(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, g.Status())
	})

	// Replica chaos controls: the HTTP face of the split-brain harness,
	// for poking a live cluster the way examples/cluster-net does.
	replicaAction := func(name string, fn func(id string) error) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if err := fn(id); err != nil {
				code := http.StatusInternalServerError
				if errors.Is(err, cluster.ErrUnknownNode) {
					code = http.StatusNotFound
				}
				writeError(w, code, fmt.Errorf("%s %q: %w", name, id, err))
				return
			}
			writeJSON(w, http.StatusOK, g.Status())
		}
	}
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/crash", replicaAction("crash", g.Crash))
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/restart", replicaAction("restart", g.Restart))
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/partition", replicaAction("partition", g.Partition))
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/heal", replicaAction("heal", g.Heal))

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if c := g.Leader(); c != nil {
			_ = c.Metrics() // refresh cluster-level gauges before the merge
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = g.Registry().WritePrometheus(w)
	})

	return mux
}
