package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"broadcastic/internal/jobs"
	"broadcastic/internal/telemetry/causal"
)

// submitRequest is the POST /jobs body: a JobSpec plus an optional tenant
// (the X-Tenant header, when present, wins over the body field).
type submitRequest struct {
	Tenant string `json:"tenant,omitempty"`
	jobs.JobSpec
}

// AttachJobs mounts the job API onto mux:
//
//	POST   /jobs      — submit a spec; 202 queued, 200 on a cache hit,
//	                    400 invalid, 429 (+ Retry-After) on queue-full,
//	                    503 when the service is shutting down.
//	GET    /jobs      — list the jobs the service holds (queued,
//	                    running and the jobs.Retain latest finished),
//	                    submission order.
//	GET    /jobs/{id} — one job's snapshot; 404 never issued, 410 retired.
//	DELETE /jobs/{id} — cancel; the snapshot reflects the new state; 404
//	                    never issued, 410 retired.
//
// The tenant comes from the X-Tenant header or the body's "tenant" field,
// defaulting to "default". Responses are the jobs.Job JSON snapshot; when
// the service has a flight recorder, every submission is admitted under a
// fresh trace whose ID the snapshot carries as "traceId".
func AttachJobs(mux *http.ServeMux, svc *jobs.Service) {
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			tenant = req.Tenant
		}
		if tenant == "" {
			tenant = "default"
		}
		// Admission is where the causal root is minted: everything that
		// happens to this submission — rejection included — records under
		// the trace born here.
		var cause causal.Context
		if fr := svc.Flight(); fr != nil {
			cause = fr.StartTrace(causal.JobAdmission,
				causal.String("tenant", tenant),
				causal.String("experiment", req.Experiment))
		}
		job, err := svc.SubmitTraced(tenant, req.JobSpec, cause)
		switch {
		case err == nil:
		case errors.Is(err, jobs.ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		case errors.Is(err, jobs.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		default:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		status := http.StatusAccepted
		if job.CacheHit {
			status = http.StatusOK
		}
		writeJob(w, status, job)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(svc.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := svc.Get(r.PathValue("id"))
		if !ok {
			missingJob(w, svc, r.PathValue("id"))
			return
		}
		writeJob(w, http.StatusOK, job)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := svc.Cancel(r.PathValue("id"))
		if !ok {
			missingJob(w, svc, r.PathValue("id"))
			return
		}
		writeJob(w, http.StatusOK, job)
	})
}

// missingJob answers an ID the service does not hold: 410 Gone when it
// was issued and has been retired, 404 when it was never issued.
func missingJob(w http.ResponseWriter, svc *jobs.Service, id string) {
	if svc.Retired(id) {
		httpError(w, http.StatusGone, "job retired: the service keeps only its latest finished jobs; "+
			"resubmitting the spec is served from the result cache while the result is still there")
		return
	}
	httpError(w, http.StatusNotFound, "unknown job")
}

func writeJob(w http.ResponseWriter, status int, job jobs.Job) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(job)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
