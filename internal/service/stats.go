package service

import (
	"sync/atomic"
	"time"

	"panorama/internal/core"
	"panorama/internal/failure"
	"panorama/internal/obs"
)

// stats is the server's counter set, registered on the server's own
// obs.Registry: /metricsz renders the counters themselves, so there is
// no mirror to drift. Labelled children are resolved once in newStats,
// and every hot-path update is a single atomic add.
type stats struct {
	submitted, rejected           *obs.Counter
	hits, misses, coalesced       *obs.Counter
	executed, completed           *obs.Counter
	failedBudget, failedOther     *obs.Counter
	failedInfeasible              *obs.Counter
	failedCancelled               *obs.Counter
	retried, degraded, shed       *obs.Counter
	requeued, recovered           *obs.Counter
	journalErrors                 *obs.Counter
	batchRequests                 *obs.Counter
	batchRejected                 *obs.Counter
	batchItemsHit, batchItemsDup  *obs.Counter
	batchItemsCoalesced           *obs.Counter
	batchItemsEnqueued            *obs.Counter
	batchItemsError               *obs.Counter
	sseStreams, sseResumed        *obs.Counter
	sseSent                       *obs.Counter
	forwarded, forwardFallback    *obs.Counter
	forwardMisdirected            *obs.Counter
	originJobs, gossipFilled      *obs.Counter
	webhookSent, webhookRetried   *obs.Counter
	webhookFailed, webhookDropped *obs.Counter

	sseActive atomic.Int64 // streams currently open (a gauge)
	// stageNS is the cumulative wall time (ns) of executed jobs per
	// stageNames entry, from Result.Provenance.
	stageNS [len(stageNames)]atomic.Int64
}

// stageNames are the pipeline stages whose wall time /metricsz totals.
var stageNames = [...]string{"clustering", "clustermap", "lower"}

func newStats(r *obs.Registry) *stats {
	c := r.Counter
	items := r.CounterVec("panorama_batch_items_total", "Batch items by admission disposition.", "disposition")
	failed := r.CounterVec("panorama_service_failed_total", "Executions that returned an error, by failure class.", "class")
	st := &stats{
		batchItemsCoalesced: items.With("coalesced"),
		batchItemsDup:       items.With("dup"),
		batchItemsEnqueued:  items.With("enqueued"),
		batchItemsError:     items.With("error"),
		batchItemsHit:       items.With("hit"),
		batchRejected:       c("panorama_batch_rejected_total", "Batch requests rejected wholesale by admission control."),
		batchRequests:       c("panorama_batch_requests_total", "Batch requests that reached admission."),
		forwardFallback:     c("panorama_cluster_forward_fallback_total", "Forwards that fell back to local execution (owner down or misdirected)."),
		forwarded:           c("panorama_cluster_forwarded_total", "Job attempts concluded on the ring owner peer."),
		gossipFilled:        c("panorama_cluster_gossip_fill_total", "Cache entries pulled from peers by the gossip loop."),
		forwardMisdirected:  c("panorama_cluster_misdirected_total", "Forwarded requests this peer rejected with 421 (ring disagreement)."),
		originJobs:          c("panorama_cluster_origin_jobs_total", "Jobs accepted on behalf of a forwarding peer."),
		hits:                c("panorama_service_cache_hits_total", "Submissions served straight from the result cache."),
		misses:              c("panorama_service_cache_misses_total", "Submissions that required a computation."),
		coalesced:           c("panorama_service_coalesced_total", "Submissions attached to an identical in-flight job."),
		completed:           c("panorama_service_completed_total", "Executions that returned a clean summary."),
		degraded:            c("panorama_service_degraded_total", "Jobs stepped down to a cheaper mapper (retry ladder or admission breaker)."),
		executed:            c("panorama_service_executed_total", "Pipeline executions started."),
		failedBudget:        failed.With("budget"),
		failedCancelled:     failed.With("cancelled"),
		failedInfeasible:    failed.With("infeasible"),
		failedOther:         failed.With("other"),
		journalErrors:       c("panorama_service_journal_append_errors_total", "Job lifecycle records the service failed to journal."),
		recovered:           c("panorama_service_recovered_total", "Jobs replayed from the journal at startup."),
		rejected:            c("panorama_service_rejected_total", "Submissions rejected by admission control (429)."),
		requeued:            c("panorama_service_requeued_total", "Jobs a draining server handed back to the journal."),
		retried:             c("panorama_service_retried_total", "Failed attempts re-run by the retry ladder."),
		shed:                c("panorama_service_shed_total", "Submissions refused because the breaker was shedding load."),
		submitted:           c("panorama_service_submitted_total", "Accepted submissions (cache hit, coalesced or enqueued)."),
		sseSent:             c("panorama_sse_events_sent_total", "Events written to SSE streams."),
		sseResumed:          c("panorama_sse_resumed_total", "SSE streams opened with a Last-Event-ID resume cursor."),
		sseStreams:          c("panorama_sse_streams_total", "SSE streams opened (job and batch)."),
		webhookDropped:      c("panorama_webhook_dropped_total", "Webhook events dropped (full queue or unmarshalable payload)."),
		webhookFailed:       c("panorama_webhook_failed_total", "Webhook events abandoned after the retry ladder."),
		webhookRetried:      c("panorama_webhook_retried_total", "Webhook delivery attempts that will be retried."),
		webhookSent:         c("panorama_webhook_sent_total", "Webhook deliveries acknowledged with a 2xx."),
	}
	for i, name := range stageNames {
		ns := &st.stageNS[i]
		r.Func("counter", "panorama_service_stage_seconds_total", "Cumulative per-stage wall time of executed jobs.",
			[]string{"stage"}, []string{name}, func() float64 {
				return float64(ns.Load()) / float64(time.Millisecond) / 1000
			})
	}
	return st
}

func (st *stats) recordStages(sum core.Summary) {
	for _, rec := range sum.Stages {
		for i, name := range stageNames {
			if rec.Stage == name {
				st.stageNS[i].Add(int64(rec.Wall))
			}
		}
	}
}

func (st *stats) recordFailure(err error) {
	switch {
	case failure.IsBudget(err):
		st.failedBudget.Inc()
	case failure.IsCancelled(err):
		st.failedCancelled.Inc()
	case failure.IsInfeasible(err):
		st.failedInfeasible.Inc()
	default:
		st.failedOther.Inc()
	}
}

// Stats is the admission summary in-process harnesses read between
// runs; /metricsz carries every counter.
type Stats struct {
	Executed  int64 // pipeline executions started on this server
	Coalesced int64 // submissions attached to an identical in-flight job
	Rejected  int64 // submissions rejected by admission control
}

// Stats reads the admission counters.
func (s *Server) Stats() Stats {
	return Stats{
		Executed:  s.stats.executed.Value(),
		Coalesced: s.stats.coalesced.Value(),
		Rejected:  s.stats.rejected.Value(),
	}
}
