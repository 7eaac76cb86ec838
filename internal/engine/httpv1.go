package engine

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/relation"
	"spq/internal/sketch"
)

// This file serves the versioned async API over the job manager:
//
//	POST   /v1/queries        — submit a query; 202 + the queued Job
//	GET    /v1/queries        — list tracked jobs (active + bounded history)
//	GET    /v1/queries/{id}   — poll one job; ?since=<seq> returns only newer
//	                            progress events, ?wait_ms=<ms> long-polls
//	                            until the job changes or turns terminal
//	DELETE /v1/queries/{id}   — cancel; returns the (possibly already
//	                            terminal) Job
//	POST   /v1/queries:batch  — submit many; per-item job-or-error results
//
// Every non-2xx response body is the structured envelope
// {"error":{"code":...,"message":...}} with the stable codes of the client
// package; 429 responses carry a Retry-After header. The wire types are
// defined in spq/client so the server and the Go client share one contract.

// maxPollWait caps the ?wait_ms long-poll duration.
const maxPollWait = 30 * time.Second

// writeError renders the v1 error envelope, setting Retry-After on 429.
func writeError(w http.ResponseWriter, apiErr *client.Error) {
	status := apiErr.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	if status == http.StatusTooManyRequests {
		if apiErr.RetryAfterMS <= 0 {
			apiErr.RetryAfterMS = 1000
		}
		secs := (apiErr.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, client.ErrorEnvelope{Error: apiErr})
}

// writeEngineError maps an engine error to the envelope.
func writeEngineError(w http.ResponseWriter, err error) {
	writeError(w, errToWire(err))
}

// methodsHandler dispatches on the HTTP method and envelopes 405s (the
// stock ServeMux writes plain-text bodies, which the v1 contract forbids).
func methodsHandler(handlers map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(handlers))
	for m := range handlers {
		allowed = append(allowed, m)
	}
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if h, ok := handlers[r.Method]; ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeError(w, &client.Error{
			Code:       client.CodeMethodNotAllowed,
			Message:    "method " + r.Method + " not allowed for " + r.URL.Path,
			HTTPStatus: http.StatusMethodNotAllowed,
		})
	}
}

// engineRequest lowers a typed v1 submission to the engine's request.
func engineRequest(sr *client.SubmitRequest) (Request, *client.Error) {
	req := Request{
		Query:       sr.Query,
		Method:      sr.Method,
		Timeout:     time.Duration(sr.TimeoutMS) * time.Millisecond,
		TraceParent: sr.TraceParent,
		Tenant:      sr.Tenant,
		Class:       sr.Class,
	}
	if o := sr.Options; o != nil {
		req.Options = &core.Options{
			Seed:                o.Seed,
			ValidationSeed:      o.ValidationSeed,
			ValidationM:         o.ValidationM,
			InitialM:            o.InitialM,
			IncrementM:          o.IncrementM,
			MaxM:                o.MaxM,
			FixedZ:              o.FixedZ,
			IncrementZ:          o.IncrementZ,
			Epsilon:             o.Epsilon,
			MaxCSAIters:         o.MaxCSAIters,
			Parallelism:         o.Parallelism,
			DisableAcceleration: o.DisableAcceleration,
			TimeLimit:           time.Duration(o.TimeLimitMS) * time.Millisecond,
			SolverTime:          time.Duration(o.SolverTimeMS) * time.Millisecond,
			SolverNodes:         o.SolverNodes,
			RelGap:              o.RelGap,
		}
	}
	req.Solve = sr.Solve
	if s := sr.Sketch; s != nil {
		var strategy relation.PartitionStrategy
		switch strings.ToLower(s.Strategy) {
		case "", "kmeans":
			strategy = relation.PartitionKMeans
		case "hash":
			strategy = relation.PartitionHash
		case "range":
			strategy = relation.PartitionRange
		default:
			return Request{}, &client.Error{
				Code:       client.CodeBadRequest,
				Message:    "unknown sketch strategy " + strconv.Quote(s.Strategy),
				HTTPStatus: http.StatusBadRequest,
			}
		}
		req.Sketch = &sketch.Options{
			GroupSize:     s.GroupSize,
			Shards:        s.Shards,
			MaxCandidates: s.MaxCandidates,
			Seed:          s.Seed,
			Strategy:      strategy,
		}
	}
	return req, nil
}

// decodeBody decodes a bounded JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *client.Error {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return &client.Error{
			Code:       client.CodeBadRequest,
			Message:    "bad request body: " + err.Error(),
			HTTPStatus: http.StatusBadRequest,
		}
	}
	return nil
}

// submitOne validates and submits one request, mapping failures to wire
// errors (shared by the single and batch submit paths).
func (e *Engine) submitOne(sr *client.SubmitRequest) (*Job, *client.Error) {
	if sr.Query == "" {
		return nil, &client.Error{Code: client.CodeBadRequest, Message: `missing "query"`, HTTPStatus: http.StatusBadRequest}
	}
	req, apiErr := engineRequest(sr)
	if apiErr != nil {
		return nil, apiErr
	}
	j, err := e.Submit(req)
	if err != nil {
		return nil, errToWire(err)
	}
	return j, nil
}

func (e *Engine) handleV1Submit(w http.ResponseWriter, r *http.Request) {
	var sr client.SubmitRequest
	if apiErr := decodeBody(w, r, &sr); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	sr.TraceParent = r.Header.Get(client.TraceHeader)
	if t := r.Header.Get(client.TenantHeader); t != "" {
		sr.Tenant = t // header wins over the body field
	}
	j, apiErr := e.submitOne(&sr)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot(0))
}

func (e *Engine) handleV1List(w http.ResponseWriter, r *http.Request) {
	jobs := e.Jobs()
	out := client.ListResponse{Jobs: make([]*client.Job, 0, len(jobs))}
	for _, j := range jobs {
		snap := j.Snapshot(math.MaxInt) // no event bodies in listings
		snap.Trace = nil                // trace trees neither (GET the job or its /trace)
		out.Jobs = append(out.Jobs, snap)
	}
	writeJSON(w, http.StatusOK, out)
}

func (e *Engine) handleV1Get(w http.ResponseWriter, r *http.Request) {
	j, ok := e.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &client.Error{Code: client.CodeNotFound, Message: "unknown job " + strconv.Quote(r.PathValue("id")), HTTPStatus: http.StatusNotFound})
		return
	}
	q := r.URL.Query()
	since := 0
	if s := q.Get("since"); s != "" {
		var err error
		if since, err = strconv.Atoi(s); err != nil {
			writeError(w, &client.Error{Code: client.CodeBadRequest, Message: "bad since parameter: " + err.Error(), HTTPStatus: http.StatusBadRequest})
			return
		}
	}
	var waitMS int64
	if s := q.Get("wait_ms"); s != "" {
		var err error
		if waitMS, err = strconv.ParseInt(s, 10, 64); err != nil {
			writeError(w, &client.Error{Code: client.CodeBadRequest, Message: "bad wait_ms parameter: " + err.Error(), HTTPStatus: http.StatusBadRequest})
			return
		}
	}
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxPollWait {
		wait = maxPollWait
	}
	writeJSON(w, http.StatusOK, j.Poll(r.Context(), since, wait))
}

func (e *Engine) handleV1Trace(w http.ResponseWriter, r *http.Request) {
	j, ok := e.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &client.Error{Code: client.CodeNotFound, Message: "unknown job " + strconv.Quote(r.PathValue("id")), HTTPStatus: http.StatusNotFound})
		return
	}
	writeJSON(w, http.StatusOK, j.TraceData())
}

func (e *Engine) handleV1Cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := e.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, &client.Error{Code: client.CodeNotFound, Message: "unknown job " + strconv.Quote(r.PathValue("id")), HTTPStatus: http.StatusNotFound})
		return
	}
	// Give the cancellation a moment to propagate so the common case
	// returns the job already in its terminal state.
	snap := j.Poll(r.Context(), math.MaxInt, 100*time.Millisecond)
	writeJSON(w, http.StatusOK, snap)
}

func (e *Engine) handleV1Batch(w http.ResponseWriter, r *http.Request) {
	var br client.BatchRequest
	if apiErr := decodeBody(w, r, &br); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if len(br.Queries) == 0 {
		writeError(w, &client.Error{Code: client.CodeBadRequest, Message: `missing "queries"`, HTTPStatus: http.StatusBadRequest})
		return
	}
	out := client.BatchResponse{Jobs: make([]client.BatchItem, len(br.Queries))}
	tenant := r.Header.Get(client.TenantHeader)
	for i := range br.Queries {
		if tenant != "" {
			br.Queries[i].Tenant = tenant // header wins over the body field
		}
		j, apiErr := e.submitOne(&br.Queries[i])
		if apiErr != nil {
			out.Jobs[i] = client.BatchItem{Error: apiErr}
			continue
		}
		out.Jobs[i] = client.BatchItem{Job: j.Snapshot(0)}
	}
	writeJSON(w, http.StatusAccepted, out)
}
