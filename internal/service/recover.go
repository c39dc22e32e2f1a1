package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/journal"
)

// Journal blob carrying everything needed to re-run a job after a
// restart: the resolved request, not the wire request, so recovery is
// independent of server defaults that may have changed. Layout
// (version 1): version byte, DFG binary blob (PDFG codec), arch
// description JSON, mapper string, seed zigzag varint, the four budget
// durations as zigzag varints — blobs and strings as uvarint length +
// raw bytes, decoded by the same bounds-checked reader as the cache
// entry codec.
const jobPayloadVersion = 1

// encodeJobPayload flattens a resolved request into the journal blob.
func encodeJobPayload(req *resolved) ([]byte, error) {
	gbin, err := req.graph.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	var ab bytes.Buffer
	if err := req.arch.WriteJSON(&ab); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	buf := make([]byte, 0, 64+len(gbin)+ab.Len()+len(req.mapper))
	buf = append(buf, jobPayloadVersion)
	buf = binary.AppendUvarint(buf, uint64(len(gbin)))
	buf = append(buf, gbin...)
	buf = binary.AppendUvarint(buf, uint64(ab.Len()))
	buf = append(buf, ab.Bytes()...)
	buf = appendString(buf, req.mapper)
	buf = binary.AppendVarint(buf, req.seed)
	for _, d := range []time.Duration{req.budgets.Clustering, req.budgets.ClusterMap,
		req.budgets.Lower, req.budgets.Total} {
		buf = binary.AppendVarint(buf, int64(d))
	}
	return buf, nil
}

// decodeJobPayload rebuilds a resolved request from a journal blob,
// re-validating the graph, architecture and mapper, and recomputing
// the fingerprint (which may legitimately drift across a CodeVersion
// bump — the caller compares it against the journaled key).
func decodeJobPayload(data []byte) (*resolved, error) {
	if len(data) < 1 || data[0] != jobPayloadVersion {
		return nil, fmt.Errorf("service: job payload: bad version")
	}
	r := &entryReader{data: data, off: 1}
	gbin := []byte(r.str())
	ajson := []byte(r.str())
	mapper := r.str()
	seed := r.varint()
	var budgets core.Budgets
	budgets.Clustering = time.Duration(r.varint())
	budgets.ClusterMap = time.Duration(r.varint())
	budgets.Lower = time.Duration(r.varint())
	budgets.Total = time.Duration(r.varint())
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("service: job payload: %d trailing bytes", len(data)-r.off)
	}
	g := new(dfg.Graph)
	if err := g.UnmarshalBinary(gbin); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	if err := g.Freeze(); err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	a, err := arch.ReadJSON(bytes.NewReader(ajson))
	if err != nil {
		return nil, fmt.Errorf("service: job payload: %w", err)
	}
	if !validMapper(mapper) {
		return nil, fmt.Errorf("service: job payload: unknown mapper %q", mapper)
	}
	return &resolved{
		graph:       g,
		arch:        a,
		mapper:      mapper,
		seed:        seed,
		budgets:     budgets,
		fingerprint: Key(g, a, mapper, seed, budgets),
	}, nil
}

// recoverJobs rebuilds the pending jobs replayed from the journal:
// jobs whose computation has meanwhile landed in the cache resolve
// instantly (and are journaled complete), undecodable payloads are
// cancelled in the journal so they stop replaying, and everything else
// re-enters the queue under its original job ID with its prior attempt
// count charged against the retry budget. Runs during New, before the
// workers start, so no locking is needed.
func (s *Server) recoverJobs(pending []journal.Record) {
	for _, rec := range pending {
		if n := jobIDNum(rec.JobID); n > s.nextID {
			s.nextID = n
		}
		req, err := decodeJobPayload(rec.Blob)
		if err != nil {
			log.Printf("service: journal: dropping job %s: %v", rec.JobID, err)
			s.jlog(journal.Record{Kind: journal.Cancelled, JobID: rec.JobID, Key: rec.Key,
				Note: "unreadable payload on recovery"})
			continue
		}
		job := newJob(rec.JobID, req)
		job.runMapper = req.mapper
		job.attempts = rec.Attempt
		// Re-synthesize the event history the pre-crash process streamed
		// — one queued event, one running event per journaled attempt,
		// with the same sequence numbers — so a client resuming with
		// Last-Event-ID spanning the restart sees neither duplicated nor
		// missing transitions.
		seedRecoveredEvents(job, rec.Attempt)
		if req.fingerprint != rec.Key {
			// A CodeVersion bump (or changed fingerprint inputs) since
			// the journal was written; the job re-runs under its new
			// identity.
			log.Printf("service: journal: job %s fingerprint drifted across restart (code version bump?)", rec.JobID)
		}
		s.jobs[job.ID] = job
		if e, ok := s.cache.Get(job.Fingerprint); ok {
			// The computation finished before the crash (or another
			// node shares the cache dir): resolve without re-running.
			job.status = JobDone
			job.summary = &e.Summary
			job.finished = time.Now()
			job.emit(JobDone)
			close(job.done)
			s.jlog(journal.Record{Kind: journal.Completed, JobID: job.ID, Key: job.Fingerprint,
				Note: "resolved from cache on recovery"})
			s.stats.recovered.Add(1)
			continue
		}
		if _, dup := s.flight[job.Fingerprint]; !dup {
			s.flight[job.Fingerprint] = job
		}
		s.queue <- job // capacity ≥ len(pending), never blocks here
		s.stats.recovered.Add(1)
	}
}

// jobIDNum parses the sequence number out of a "job-%06d" id (0 when
// the id doesn't match).
func jobIDNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// jlog appends a lifecycle record to the journal, when one is
// configured. Append failures are logged and counted, never fatal: the
// service keeps serving without durability rather than refusing work.
func (s *Server) jlog(r Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(r); err != nil {
		s.stats.journalErrors.Add(1)
		log.Printf("service: %v", err)
	}
}

// Record aliases the journal record type for the service's own
// call sites.
type Record = journal.Record
