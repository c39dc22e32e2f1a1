package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/failure"
)

// StatusClientClosedRequest is the nginx-convention status for a job
// whose computation was cancelled (no standard code exists).
const StatusClientClosedRequest = 499

// ErrorInfo is the wire form of a typed failure: Class is the failure
// taxonomy bucket the HTTP status was derived from, Stage the pipeline
// stage that produced it (when known).
type ErrorInfo struct {
	Class   string `json:"class"` // budget, cancelled, infeasible, lower-failed, panic, internal
	Stage   string `json:"stage,omitempty"`
	Message string `json:"message"`
	// Valid lists the accepted values when the error is a rejected
	// enumerated field (class "unknown-mapper": the registered mapper
	// names).
	Valid []string `json:"valid,omitempty"`
}

// JobView is the wire form of a job (POST /v1/map and GET /v1/jobs).
type JobView struct {
	ID          string        `json:"id"`
	Fingerprint string        `json:"fingerprint"`
	Mapper      string        `json:"mapper"`
	Seed        int64         `json:"seed,omitempty"`
	Status      JobStatus     `json:"status"`
	Cache       string        `json:"cache,omitempty"` // "hit" or "coalesced"
	Result      *core.Summary `json:"result,omitempty"`
	Error       *ErrorInfo    `json:"error,omitempty"`
	Attempts    int           `json:"attempts,omitempty"`
	RunMapper   string        `json:"runMapper,omitempty"` // set when degraded below Mapper
	QueuedMS    float64       `json:"queuedMS,omitempty"`
	RunMS       float64       `json:"runMS,omitempty"`
}

// View snapshots the job for the wire.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		Mapper:      j.Mapper,
		Seed:        j.Seed,
		Status:      j.status,
		Result:      j.summary,
		Attempts:    j.attempts,
	}
	if j.degraded {
		v.RunMapper = j.runMapper
	}
	if j.err != nil {
		v.Error = &ErrorInfo{
			Class:   failureClass(j.err),
			Stage:   failure.StageOf(j.err),
			Message: j.err.Error(),
		}
	}
	if !j.started.IsZero() {
		v.QueuedMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	return v
}

// failureClass buckets an error by the failure taxonomy.
func failureClass(err error) string {
	var pe *failure.PanicError
	switch {
	case failure.IsBudget(err):
		return "budget"
	case failure.IsCancelled(err):
		return "cancelled"
	case failure.IsInfeasible(err):
		return "infeasible"
	case errors.Is(err, failure.ErrLowerFailed):
		return "lower-failed"
	case errors.As(err, &pe):
		return "panic"
	default:
		return "internal"
	}
}

// failureStatus maps the failure taxonomy onto distinct HTTP statuses:
// budget → 504, cancelled → 499, infeasible → 422, everything else
// (lower-failed, panics, internal errors) → 500.
func failureStatus(err error) int {
	switch {
	case failure.IsBudget(err):
		return http.StatusGatewayTimeout
	case failure.IsCancelled(err):
		return StatusClientClosedRequest
	case failure.IsInfeasible(err):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// Handler returns the service's HTTP surface:
//
//	POST /v1/map        submit a job (cache hit → 200, queued → 202,
//	                    wait=true blocks for the outcome)
//	POST /v1/batch      submit many jobs under one admission decision
//	                    (fully resolved → 200, anything queued → 202)
//	GET  /v1/batch/{id} batch status with per-item outcomes
//	GET  /v1/batch/{id}/events  SSE aggregate stream: one "item" event
//	                    per item as it finishes, then a "batch" summary
//	GET  /v1/jobs/{id}  job status/result; ?wait=1 blocks until done
//	GET  /v1/jobs/{id}/events  SSE stream of the job's state
//	                    transitions, resumable via Last-Event-ID
//	GET  /v1/result/{fp} cached result by fingerprint
//	GET  /v1/trace/{id} the job's (or batch admission's) span tree
//	                    (JSON; live snapshot while the job runs, 404
//	                    before it starts)
//	GET  /v1/cluster/statsz  this peer's ring membership, peer health
//	                    and recently completed fingerprints (the
//	                    fleet gossip surface)
//	GET  /healthz       liveness ("ok", or "draining" during shutdown)
//	GET  /metricsz      every service counter and gauge, then the
//	                    pipeline metrics (Prometheus text)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/batch/{id}", s.handleBatchGet)
	mux.HandleFunc("GET /v1/batch/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/result/{fp}", s.handleResult)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /v1/cluster/statsz", s.handleClusterStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricsz", s.handleMetrics)
	return mux
}

// maxBodyBytes is the request-body cap before JSON decoding.
func (s *Server) maxBodyBytes() int64 {
	if s.opts.MaxBodyBytes > 0 {
		return s.opts.MaxBodyBytes
	}
	return 8 << 20
}

// maxBatchItems is the per-request item cap on POST /v1/batch.
func (s *Server) maxBatchItems() int {
	if s.opts.MaxBatchItems > 0 {
		return s.opts.MaxBatchItems
	}
	return 64
}

// decodeJSONBody decodes a size-capped request body into v, writing
// the error response (413 oversized, 400 malformed) itself and
// reporting whether the caller should proceed.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "oversized-body",
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "bad-request", err)
		return false
	}
	return true
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeJSONBody(w, r, s.maxBodyBytes(), &req) {
		return
	}
	res, err := s.resolve(&req)
	if err != nil {
		var um *UnknownMapperError
		if errors.As(err, &um) {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": ErrorInfo{Class: "unknown-mapper", Message: um.Error(), Valid: um.Valid},
			})
			return
		}
		httpError(w, http.StatusBadRequest, "bad-request", err)
		return
	}
	if from := r.Header.Get(cluster.HeaderForwardedFrom); from != "" {
		// Single-hop guard: a forwarded request is never forwarded
		// again. If this peer's ring view says the fingerprint belongs
		// elsewhere (a mid-reconfiguration fleet), 421 tells the origin
		// to run the job locally instead of starting a loop.
		if cl := s.opts.Cluster; cl.Enabled() && !cl.IsSelf(cl.Owner(res.fingerprint)) {
			s.stats.forwardMisdirected.Add(1)
			httpError(w, http.StatusMisdirectedRequest, "misdirected",
				fmt.Errorf("peer %s forwarded fingerprint %s, but this peer does not own it", from, res.fingerprint))
			return
		}
		res.origin = from
		s.stats.originJobs.Add(1)
	}
	out, err := s.submit(res)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}

	if out.Entry != nil {
		writeJSON(w, http.StatusOK, JobView{
			Fingerprint: out.Entry.Fingerprint,
			Mapper:      res.mapper,
			Seed:        res.seed,
			Status:      JobDone,
			Cache:       "hit",
			Result:      &out.Entry.Summary,
		})
		return
	}

	job := out.Job
	cacheNote := ""
	if out.Coalesced {
		cacheNote = "coalesced"
	}
	if res.wait {
		select {
		case <-job.Done():
			s.writeJobOutcome(w, job, cacheNote)
		case <-r.Context().Done():
			// The client went away mid-wait; the job keeps running and
			// remains pollable.
			v := job.View()
			v.Cache = cacheNote
			writeJSON(w, http.StatusAccepted, v)
		}
		return
	}
	v := job.View()
	v.Cache = cacheNote
	writeJSON(w, http.StatusAccepted, v)
}

// writeAdmissionError answers a rejected admission — 429 for a full
// queue, 503 while draining or shedding, Retry-After where waiting
// helps — and returns the rejection class ("internal" for anything
// unexpected).
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) string {
	status, class := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrOverloaded):
		status, class = http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDraining):
		status, class = http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrShedding):
		status, class = http.StatusServiceUnavailable, "shedding"
	}
	if class == "overloaded" || class == "shedding" {
		w.Header().Set("Retry-After", strconv429(s.retryAfterSeconds()))
	}
	httpError(w, status, class, err)
	return class
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-job.Done():
		case <-r.Context().Done():
		}
	}
	select {
	case <-job.Done():
		s.writeJobOutcome(w, job, "")
	default:
		writeJSON(w, http.StatusAccepted, job.View())
	}
}

// writeJobOutcome renders a finished job: 200 on success, the typed
// failure's status otherwise.
func (s *Server) writeJobOutcome(w http.ResponseWriter, job *Job, cacheNote string) {
	v := job.View()
	v.Cache = cacheNote
	if err := job.Err(); err != nil {
		writeJSON(w, failureStatus(err), v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	e, ok := s.cache.Get(fp)
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("no cached result for %q", fp))
		return
	}
	writeJSON(w, http.StatusOK, e)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if b, ok := s.Batch(r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, b.trace.Dump())
		return
	}
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	tr := job.Trace()
	if tr == nil {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("job %q has no trace yet", job.ID))
		return
	}
	writeJSON(w, http.StatusOK, tr.Dump())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, class string, err error) {
	writeJSON(w, status, map[string]any{
		"error": ErrorInfo{Class: class, Message: err.Error()},
	})
}
