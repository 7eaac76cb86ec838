package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"spq/client"
)

// fuzzSubmitSeeds are the submissions of TestSubmitValidation (a parse
// failure, an unknown method, a hard query, a small query) and of
// TestV1ErrorEnvelope (malformed JSON, a missing query, an unknown sketch
// strategy) as v1 request bodies.
var fuzzSubmitSeeds = []string{
	`{"query": "SELECT NONSENSE"}`,
	`{"query": ` + strconv.Quote(testQuery) + `, "method": "quantum"}`,
	`{"query": ` + strconv.Quote(hardRequest().Query) + `, "options": {"seed": 1, "validation_m": 500000, "initial_m": 50, "increment_m": 50, "max_m": 1000}}`,
	`{"query": ` + strconv.Quote(testQuery) + `, "options": {"seed": 1, "validation_m": 1500, "initial_m": 10, "increment_m": 10, "max_m": 60}}`,
	`{nope`,
	`{}`,
	`{"query": ` + strconv.Quote(testQuery) + `, "method": "sketch", "sketch": {"strategy": "voronoi"}}`,
}

// FuzzV1Submit drives arbitrary bodies through Handler's submit routes,
// POST /v1/queries and POST /v1/queries:batch. Whatever the body, the
// handler must not panic, must never answer 5xx, and every non-2xx answer
// (and every failed batch item) must be the error envelope with a code.
// The engine's only solve slot is held for the whole run, so an accepted
// job waits in admission until it is cancelled and never solves.
func FuzzV1Submit(f *testing.F) {
	e := New(newCatalog(f, 8), &Options{MaxInFlight: 1, MaxQueue: 64, MaxJobs: 64, Parallelism: 1, JobHistory: -1})
	if err := e.sched.Acquire(context.Background(), ""); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.sched.Release("") })
	h := e.Handler()

	for _, body := range fuzzSubmitSeeds {
		f.Add(false, []byte(body))
		f.Add(true, []byte(`{"queries": [`+body+`]}`))
	}
	f.Add(true, []byte(`{"queries": []}`))

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/queries"
		if batch {
			path = "/v1/queries:batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body)
		}
		if rec.Code/100 != 2 {
			var env client.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" {
				t.Fatalf("POST %s answered %d without the error envelope: %s", path, rec.Code, rec.Body)
			}
			return
		}

		var jobs []*client.Job
		if batch {
			var out client.BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("batch response does not decode: %v: %s", err, rec.Body)
			}
			for i, it := range out.Jobs {
				switch {
				case it.Job != nil:
					jobs = append(jobs, it.Job)
				case it.Error == nil || it.Error.Code == "" || it.Error.Code == client.CodeInternal:
					t.Fatalf("batch item %d is neither a job nor a client error: %+v", i, it)
				}
			}
		} else {
			var job client.Job
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
				t.Fatalf("submit response does not decode: %v: %s", err, rec.Body)
			}
			jobs = append(jobs, &job)
		}
		for _, wj := range jobs {
			// An untracked job already finished (say, on a tiny timeout) and
			// left the empty history.
			if j, ok := e.JobByID(wj.ID); ok {
				e.CancelJob(wj.ID)
				<-j.Done()
			}
		}
	})
}
