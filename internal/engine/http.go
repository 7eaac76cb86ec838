package engine

import (
	"encoding/json"
	"net/http"

	"spq/client"
	"spq/internal/resultcache"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Handler returns the engine's HTTP API:
//
//	POST   /v1/queries        — submit an async job (see httpv1.go)
//	GET    /v1/queries        — list jobs
//	GET    /v1/queries/{id}   — poll a job (progress events, long-poll)
//	DELETE /v1/queries/{id}   — cancel a job
//	POST   /v1/queries:batch  — submit many jobs
//	GET    /v1/queries/{id}/trace — the job's span tree (works while running)
//	POST   /v1/tables/{name}/deltas — apply a batch mutation to a table
//	GET    /healthz           — liveness probe
//	GET    /stats             — engine + job-manager counters
//	GET    /metrics           — the same instruments in Prometheus text format
//
// Every error — including unknown routes and disallowed methods — is the
// structured JSON envelope with a stable code: a submission over MaxJobs
// maps to 429 (with Retry-After), malformed queries to 400, unknown
// routes/jobs to 404. Failures after submission (admission rejections,
// deadline expiry, cancellation) land in the polled job's error with the
// same codes.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/queries", methodsHandler(map[string]http.HandlerFunc{
		http.MethodPost: e.handleV1Submit,
		http.MethodGet:  e.handleV1List,
	}))
	mux.HandleFunc("/v1/queries/{id}", methodsHandler(map[string]http.HandlerFunc{
		http.MethodGet:    e.handleV1Get,
		http.MethodDelete: e.handleV1Cancel,
	}))
	mux.HandleFunc("/v1/queries/{id}/trace", methodsHandler(map[string]http.HandlerFunc{
		http.MethodGet: e.handleV1Trace,
	}))
	mux.HandleFunc("/v1/queries:batch", methodsHandler(map[string]http.HandlerFunc{
		http.MethodPost: e.handleV1Batch,
	}))
	mux.HandleFunc("/v1/tables/{name}/deltas", methodsHandler(map[string]http.HandlerFunc{
		http.MethodPost: e.handleV1Delta,
	}))
	mux.HandleFunc("/healthz", methodsHandler(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		},
	}))
	mux.HandleFunc("/stats", methodsHandler(map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, e.Stats())
		},
	}))
	mux.HandleFunc("/metrics", methodsHandler(map[string]http.HandlerFunc{
		http.MethodGet: e.m.reg.Handler().ServeHTTP,
	}))
	// A replicating result cache brings its peer endpoint along (POST
	// receives pushed entries, GET reports replication counters).
	if ph, ok := e.results.(interface{ Handler() http.Handler }); ok {
		mux.Handle(resultcache.PeerPath, ph.Handler())
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &client.Error{
			Code:       client.CodeNotFound,
			Message:    "no route for " + r.URL.Path,
			HTTPStatus: http.StatusNotFound,
		})
	})
	return mux
}

// maxQueryBody bounds request bodies: everything else the daemon holds is
// capped (solve slots, queue, caches, job history), so the body must be too.
const maxQueryBody = 1 << 20
