package service

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"panorama/internal/core"
	"panorama/internal/journal"
	"panorama/internal/obs"
)

// BatchRequest is the POST /v1/batch wire format: many mapping
// requests admitted (or rejected) as one decision. The top-level
// Arch/Mapper/TimeoutMS fields are defaults applied to items that
// leave the corresponding field empty; Wait blocks the response until
// every admitted item is terminal.
type BatchRequest struct {
	Items []Request `json:"items"`

	Arch      string `json:"arch,omitempty"`
	Mapper    string `json:"mapper,omitempty"`
	TimeoutMS int64  `json:"timeoutMS,omitempty"`
	Wait      bool   `json:"wait,omitempty"`
}

// BatchItemView is the wire form of one batch item's outcome. Cache
// distinguishes how the item was satisfied without a fresh
// computation: "hit" (result cache), "coalesced" (attached to a job
// already in flight before the batch), "dup" (same fingerprint as an
// earlier item of this batch). Items that failed resolution carry
// Error and no job.
type BatchItemView struct {
	Index       int           `json:"index"`
	JobID       string        `json:"jobID,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Status      JobStatus     `json:"status,omitempty"`
	Cache       string        `json:"cache,omitempty"`
	Result      *core.Summary `json:"result,omitempty"`
	Error       *ErrorInfo    `json:"error,omitempty"`
}

// BatchView is the wire form of a batch (POST /v1/batch response and
// the terminal "batch" SSE event).
type BatchView struct {
	ID        string          `json:"id"`
	Items     []BatchItemView `json:"items"`
	Hits      int             `json:"hits"`
	Coalesced int             `json:"coalesced"`
	Dups      int             `json:"dups"`
	Enqueued  int             `json:"enqueued"`
	Errors    int             `json:"errors"`
	Done      bool            `json:"done"`
}

// Batch is one accepted POST /v1/batch admission: the per-item
// outcomes plus the admission trace (served by GET /v1/trace/{id}).
type Batch struct {
	// ID addresses the batch (GET /v1/batch/{id},
	// GET /v1/batch/{id}/events, GET /v1/trace/{id}).
	ID string

	items   []*batchItem
	trace   *obs.Trace
	created time.Time
}

// batchItem is one item's resolution: exactly one of entry (cache
// hit), job (new/coalesced/dup computation) or err (rejected at
// resolve time) is set.
type batchItem struct {
	fingerprint string
	cache       string // "", "hit", "coalesced", "dup"
	entry       *Entry
	job         *Job
	err         error
	errClass    string
	errValid    []string // accepted values for enumerated-field errors
}

// itemView snapshots item i for the wire.
func (b *Batch) itemView(i int) BatchItemView {
	it := b.items[i]
	v := BatchItemView{Index: i, Fingerprint: it.fingerprint, Cache: it.cache}
	switch {
	case it.err != nil:
		v.Error = &ErrorInfo{Class: it.errClass, Message: it.err.Error(), Valid: it.errValid}
	case it.entry != nil:
		v.Status = JobDone
		v.Result = &it.entry.Summary
	case it.job != nil:
		jv := it.job.View()
		v.JobID = jv.ID
		v.Status = jv.Status
		v.Result = jv.Result
		v.Error = jv.Error
	}
	return v
}

// View snapshots the whole batch for the wire.
func (b *Batch) View() BatchView {
	v := BatchView{ID: b.ID, Items: make([]BatchItemView, len(b.items)), Done: true}
	for i, it := range b.items {
		iv := b.itemView(i)
		v.Items[i] = iv
		switch it.cache {
		case "hit":
			v.Hits++
		case "coalesced":
			v.Coalesced++
		case "dup":
			v.Dups++
		}
		switch {
		case it.err != nil:
			v.Errors++
		case it.job != nil:
			if it.cache == "" {
				v.Enqueued++
			}
			if !terminalStatus(iv.Status) {
				v.Done = false
			}
		}
	}
	return v
}

// Batch returns a previously accepted batch by id.
func (s *Server) Batch(id string) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// submitBatch runs one admission decision over the resolved items
// (nil slots are items the caller already rejected at resolve time);
// it is the service's only admission path, single submissions being a
// batch of one. The decision is atomic: either every item that needs a
// fresh computation fits the queue — and all of them are journaled and
// enqueued — or nothing is admitted and the whole batch is rejected
// with ErrOverloaded (ErrShedding/ErrDraining likewise reject it
// wholesale). Cache hits never reject, even while the breaker sheds or
// the server drains — they cost nothing and can't fail. Identical
// fingerprints within the batch dedup onto one job; fingerprints
// already in flight coalesce onto the running job.
func (s *Server) submitBatch(reqs []*resolved) ([]Outcome, error) {
	outs := make([]Outcome, len(reqs))
	type pendingItem struct {
		i    int
		req  *resolved
		blob []byte
	}
	var pending []pendingItem
	for i, req := range reqs {
		if req == nil {
			continue
		}
		if e, ok := s.cache.Get(req.fingerprint); ok {
			outs[i] = Outcome{Entry: &e}
			continue
		}
		pending = append(pending, pendingItem{i: i, req: req})
	}

	if len(pending) > 0 {
		switch s.breaker.state() {
		case breakerShed:
			s.stats.shed.Add(int64(len(pending)))
			return nil, ErrShedding
		case breakerDegrade:
			// Serve a worse answer rather than none: admit the items on
			// the next-cheaper mapper rung (which gets its own
			// fingerprint — a degraded result must never answer a later
			// full-strength request).
			kept := pending[:0]
			for _, p := range pending {
				if m := DegradeMapper(p.req.mapper); m != "" {
					p.req = p.req.withMapper(m)
					s.stats.degraded.Inc()
					if e, ok := s.cache.Get(p.req.fingerprint); ok {
						outs[p.i] = Outcome{Entry: &e}
						continue
					}
				}
				kept = append(kept, p)
			}
			pending = kept
		}
	}

	if s.journal != nil {
		for k := range pending {
			blob, err := encodeJobPayload(pending[k].req)
			if err != nil {
				// The job still runs; it just can't be replayed.
				log.Printf("service: %v", err)
			}
			pending[k].blob = blob
		}
	}

	s.mu.Lock()
	if s.draining && len(pending) > 0 {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Plan first: how many genuinely new jobs does the batch need once
	// in-flight coalescing and within-batch dedup are accounted for?
	newJobs := 0
	planned := make(map[string]bool)
	kept := pending[:0]
	for _, p := range pending {
		fp := p.req.fingerprint
		if _, inFlight := s.flight[fp]; !inFlight && !planned[fp] {
			// An in-flight twin may have reached its terminal state
			// between the unlocked cache check above and this lock.
			// finishDone publishes to the cache before unregistering,
			// and unregister synchronizes on s.mu, so when the flight
			// index is empty here a re-check cannot miss the twin's
			// result — without it, an item landing in that window would
			// re-execute a fingerprint that just completed.
			if e, ok := s.cache.Get(fp); ok {
				outs[p.i] = Outcome{Entry: &e}
				continue
			}
			planned[fp] = true
			newJobs++
		}
		kept = append(kept, p)
	}
	pending = kept
	if free := cap(s.queue) - len(s.queue); newJobs > free {
		s.mu.Unlock()
		s.stats.rejected.Add(int64(len(pending)))
		return nil, ErrOverloaded
	}
	created := make(map[string]*Job, newJobs)
	for _, p := range pending {
		req := p.req
		// The created map first: a job made for an earlier item of this
		// batch is already in s.flight too, and must read as a
		// within-batch dup, not a coalesce onto pre-existing work.
		if job, ok := created[req.fingerprint]; ok {
			outs[p.i] = Outcome{Job: job, Coalesced: true, Dup: true}
			continue
		}
		if job, ok := s.flight[req.fingerprint]; ok {
			outs[p.i] = Outcome{Job: job, Coalesced: true}
			continue
		}
		s.nextID++
		job := newJob(fmt.Sprintf("job-%06d", s.nextID), req)
		s.jobs[job.ID] = job
		s.flight[job.Fingerprint] = job
		created[req.fingerprint] = job
		// The Submitted record goes in before the job can be dequeued
		// so a worker's Started record never precedes it in the
		// journal, and the queued event before the enqueue so no
		// subscriber sees a running event first. Peer-forwarded jobs
		// journal their origin so a post-crash operator can tell
		// replayed fleet traffic from local submissions.
		note := ""
		if req.origin != "" {
			note = "origin:" + req.origin
		}
		s.jlog(Record{Kind: journal.Submitted, JobID: job.ID, Key: job.Fingerprint, Note: note, Blob: p.blob})
		job.emit(JobQueued)
		s.queue <- job // capacity checked above, never blocks
		outs[p.i] = Outcome{Job: job}
	}
	s.mu.Unlock()

	// Per-item stats: every admitted item is one accepted submission.
	for i, req := range reqs {
		if req == nil {
			continue
		}
		s.stats.submitted.Inc()
		switch {
		case outs[i].Entry != nil:
			s.stats.hits.Inc()
		case outs[i].Coalesced:
			s.stats.coalesced.Inc()
		default:
			s.stats.misses.Inc()
		}
	}
	return outs, nil
}

// handleBatch is POST /v1/batch: decode, resolve every item against
// the top-level defaults, run one admission decision, and answer with
// the per-item outcomes (200 when nothing is left running, 202
// otherwise). Item-level resolution failures are partial: they occupy
// their slot in the response with a typed error while the rest of the
// batch proceeds.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !decodeJSONBody(w, r, s.maxBodyBytes(), &breq) {
		return
	}
	if len(breq.Items) == 0 {
		httpError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("batch has no items"))
		return
	}
	if max := s.maxBatchItems(); len(breq.Items) > max {
		httpError(w, http.StatusBadRequest, "oversized-batch",
			fmt.Errorf("batch has %d items, limit %d", len(breq.Items), max))
		return
	}

	tr := obs.NewTrace("batch")
	admit := tr.Root().Child("batch.admit")
	admit.Set("items", int64(len(breq.Items)))

	items := make([]*batchItem, len(breq.Items))
	reqs := make([]*resolved, len(breq.Items))
	for i := range breq.Items {
		req := breq.Items[i]
		if req.Arch == "" && len(req.ArchDesc) == 0 {
			req.Arch = breq.Arch
		}
		if req.Mapper == "" {
			req.Mapper = breq.Mapper
		}
		if req.TimeoutMS == 0 {
			req.TimeoutMS = breq.TimeoutMS
		}
		req.Wait = false // batch-level Wait only
		res, err := s.resolve(&req)
		if err != nil {
			it := &batchItem{err: err, errClass: "bad-request"}
			var um *UnknownMapperError
			if errors.As(err, &um) {
				it.errClass = "unknown-mapper"
				it.errValid = um.Valid
			}
			items[i] = it
			s.stats.batchItemsError.Add(1)
			continue
		}
		reqs[i] = res
		items[i] = &batchItem{fingerprint: res.fingerprint}
	}

	s.stats.batchRequests.Add(1)
	outs, err := s.submitBatch(reqs)
	if err != nil {
		if class := s.writeAdmissionError(w, err); class != "internal" {
			s.stats.batchRejected.Inc()
			admit.Set("rejected", class)
		}
		admit.End()
		return
	}

	var hits, coalesced, dups, enqueued int64
	for i := range items {
		if items[i].err != nil {
			continue
		}
		out := outs[i]
		switch {
		case out.Entry != nil:
			items[i].entry = out.Entry
			items[i].fingerprint = out.Entry.Fingerprint
			items[i].cache = "hit"
			hits++
		case out.Dup:
			items[i].job = out.Job
			items[i].fingerprint = out.Job.Fingerprint
			items[i].cache = "dup"
			dups++
		case out.Coalesced:
			items[i].job = out.Job
			items[i].fingerprint = out.Job.Fingerprint
			items[i].cache = "coalesced"
			coalesced++
		default:
			items[i].job = out.Job
			items[i].fingerprint = out.Job.Fingerprint
			enqueued++
		}
	}
	s.stats.batchItemsHit.Add(hits)
	s.stats.batchItemsCoalesced.Add(coalesced)
	s.stats.batchItemsDup.Add(dups)
	s.stats.batchItemsEnqueued.Add(enqueued)
	admit.Set("hits", hits)
	admit.Set("coalesced", coalesced)
	admit.Set("dups", dups)
	admit.Set("enqueued", enqueued)
	admit.End()

	b := &Batch{items: items, trace: tr, created: time.Now()}
	s.mu.Lock()
	s.nextBatch++
	b.ID = fmt.Sprintf("batch-%06d", s.nextBatch)
	s.batches[b.ID] = b
	s.mu.Unlock()

	if breq.Wait {
		for _, it := range items {
			if it.job == nil {
				continue
			}
			select {
			case <-it.job.Done():
			case <-r.Context().Done():
				// The client went away mid-wait; the jobs keep running
				// and the batch stays pollable/streamable.
				writeJSON(w, http.StatusAccepted, b.View())
				return
			}
		}
	}
	v := b.View()
	status := http.StatusAccepted
	if v.Done {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// handleBatchGet is GET /v1/batch/{id}: the live batch snapshot.
func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.Batch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown batch %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, b.View())
}
