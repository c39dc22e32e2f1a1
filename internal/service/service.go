package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/failure"
	"panorama/internal/faultinject"
	"panorama/internal/journal"
	"panorama/internal/obs"
)

// Admission and lifecycle sentinels, mapped onto HTTP status codes by
// the handler layer (429, 503 and 503 + Retry-After respectively).
var (
	ErrOverloaded = errors.New("service: queue full")
	ErrDraining   = errors.New("service: shutting down")
	// ErrShedding rejects a submission because the circuit breaker's
	// rolling failure rate crossed Options.BreakerShed.
	ErrShedding = errors.New("service: shedding load")
)

// RunFunc executes one mapping job and returns its summary. The
// default (nil) runs the real Panorama pipeline; tests and alternative
// backends substitute their own.
type RunFunc func(ctx context.Context, job *Job) (core.Summary, error)

// Options tunes a Server.
type Options struct {
	// Workers is the number of jobs mapped concurrently (default 1:
	// mapping saturates cores by itself via PipelineWorkers).
	Workers int
	// QueueSize bounds the jobs waiting behind the running ones;
	// a full queue rejects submissions with ErrOverloaded (default 16).
	QueueSize int
	// PipelineWorkers is the worker-pool width inside each pipeline
	// (core.Config.Workers): 0 = one per CPU, 1 = serial.
	PipelineWorkers int
	// CacheSize is the in-memory LRU capacity (default
	// DefaultCacheSize); CacheDir enables disk persistence.
	CacheSize int
	CacheDir  string
	// Budgets is the default budget ladder applied to every job; a
	// request's timeoutMS overrides Budgets.Total.
	Budgets core.Budgets
	// RetryAfter is the Retry-After fallback for 429/503 responses,
	// used until the drain estimator has observed at least one recent
	// completion (default 1s).
	RetryAfter time.Duration
	// Run substitutes the job executor (tests, alternative backends).
	Run RunFunc
	// WrapRun decorates the executor after the default is resolved, so
	// harnesses can observe every execution of the real pipeline
	// (exactly-once accounting in load tests) without replacing it.
	WrapRun func(RunFunc) RunFunc

	// MaxBodyBytes bounds a request body before JSON decoding; an
	// oversized body gets 413 (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchItems bounds the items in one POST /v1/batch request
	// (default 64).
	MaxBatchItems int
	// SSEHeartbeat is the keep-alive comment interval on idle event
	// streams (default 15s).
	SSEHeartbeat time.Duration

	// JournalDir enables the crash-safe job journal: every accepted
	// job's lifecycle is logged there, and New replays the journal to
	// re-enqueue jobs a previous process left unfinished. Empty
	// disables durability (the pre-journal behavior).
	JournalDir string
	// JournalSegmentBytes overrides the journal's compaction threshold
	// (0 = journal.DefaultSegmentBytes); JournalNoSync skips the fsync
	// per append (tests only).
	JournalSegmentBytes int64
	JournalNoSync       bool

	// MaxAttempts bounds executions per job, counting attempts replayed
	// from the journal, so a poison job gets at most one run per
	// restart (default 3).
	MaxAttempts int
	// RetryBase seeds the exponential retry backoff (default 50ms;
	// negative disables the sleep entirely).
	RetryBase time.Duration
	// WatchdogGrace cancels and retries a run exceeding
	// Budgets.Total × WatchdogGrace — a stalled worker, since the
	// pipeline enforces Total itself (default 1.5; negative disables;
	// jobs with no Total budget are never watched).
	WatchdogGrace float64
	// BreakerWindow sizes the rolling window of terminal job outcomes
	// behind the service breaker (default 16; negative disables).
	// BreakerDegrade and BreakerShed are the failure-rate fractions at
	// which new admissions degrade to the cheaper mapper rung
	// (default 0.5) and are shed with 503 + Retry-After (default 0.8).
	BreakerWindow  int
	BreakerDegrade float64
	BreakerShed    float64

	// Cluster shards the content-addressed cache across a panoramad
	// fleet: jobs whose fingerprint another peer owns are forwarded
	// there at execution time (falling back to local execution when the
	// owner is down). Nil runs the server standalone.
	Cluster *cluster.Cluster
	// GossipInterval is the peer health-probe and cache-fill cadence
	// (0 disables gossip; forwarding still works without it).
	GossipInterval time.Duration

	// WebhookURL makes every terminal job fire a signed POST there
	// (per-request Request.Webhook overrides the destination). Empty
	// disables webhooks unless a request names its own.
	WebhookURL string
	// WebhookSecret keys the HMAC-SHA256 body signature
	// (X-Panorama-Signature); empty sends unsigned webhooks.
	WebhookSecret string
	// WebhookTimeout bounds one delivery attempt (default 10s);
	// WebhookMaxAttempts bounds the retry ladder per event (default 3).
	WebhookTimeout     time.Duration
	WebhookMaxAttempts int
}

// JobStatus is the lifecycle of a Job.
type JobStatus string

// Job lifecycle states.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
	// JobRequeued marks a job a draining server handed back to the
	// journal instead of executing; the next process re-runs it.
	JobRequeued JobStatus = "requeue-on-restart"
)

// Job is one accepted mapping computation. The identity fields are
// immutable; the outcome fields are guarded by mu and published by
// View (and by the done channel for waiters).
type Job struct {
	ID          string
	Fingerprint string
	Mapper      string
	Seed        int64
	Budgets     core.Budgets

	req *resolved

	mu       sync.Mutex
	status   JobStatus
	summary  *core.Summary
	err      error
	trace    *obs.Trace
	created  time.Time
	started  time.Time
	finished time.Time

	attempts  int    // executions so far (journal-replayed ones included)
	runMapper string // mapper of the current attempt ("" = Mapper)
	degraded  bool   // the retry ladder or breaker stepped the mapper down
	origin    string // forwarding peer's URL when the job arrived via the ring
	noForward bool   // this job already spent its one forward hop
	remote    bool   // the current attempt concluded on the ring owner

	events *eventLog // state transitions for the SSE surface

	done chan struct{} // closed when the job reaches a terminal status
}

// newJob builds a queued job for req; the caller registers it.
func newJob(id string, req *resolved) *Job {
	return &Job{
		ID:          id,
		Fingerprint: req.fingerprint,
		Mapper:      req.mapper,
		Seed:        req.seed,
		Budgets:     req.budgets,
		req:         req,
		origin:      req.origin,
		status:      JobQueued,
		created:     time.Now(),
		done:        make(chan struct{}),
		events:      newEventLog(),
	}
}

// Attempts returns how many executions the job has consumed,
// including attempts replayed from the journal after a restart.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// beginAttempt charges one execution and moves the job to running.
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	j.remote = false
	j.status = JobRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	return j.attempts
}

// currentMapper is the mapper the next attempt runs with — Mapper
// unless the job was degraded to a cheaper rung.
func (j *Job) currentMapper() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.runMapper != "" {
		return j.runMapper
	}
	return j.Mapper
}

// isDegraded reports whether the job already stepped down the ladder.
func (j *Job) isDegraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// degradeTo steps the job down to mapper m for its next attempt.
func (j *Job) degradeTo(m string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.runMapper = m
	j.degraded = true
}

// Origin returns the URL of the peer that forwarded this job here (""
// for jobs submitted by ordinary clients).
func (j *Job) Origin() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.origin
}

// disableForward spends the job's single forward hop: every later
// attempt runs locally.
func (j *Job) disableForward() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.noForward = true
}

// forwardSpent reports whether the job may still be forwarded.
func (j *Job) forwardSpent() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.noForward
}

// Trace returns the observability trace of the job's pipeline run, or
// nil before the job has started (it is live while the job runs —
// obs.Trace.Dump snapshots open spans safely).
func (j *Job) Trace() *obs.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's terminal error (nil while running or on
// success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Summary returns the job's result summary; ok is false until the job
// has one (a failed job may still carry the partial summary the
// pipeline salvaged).
func (j *Job) Summary() (core.Summary, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.summary == nil {
		return core.Summary{}, false
	}
	return *j.summary, true
}

// Server is the mapping-as-a-service engine, independent of its HTTP
// skin (http.go) so tests and embedders can drive it directly.
type Server struct {
	opts    Options
	cache   *Cache
	metrics *obs.Registry // this server's own /metricsz families
	stats   *stats
	journal *journal.Journal // nil without Options.JournalDir
	breaker *breaker         // nil when disabled

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*Job   // by job id
	flight    map[string]*Job   // by fingerprint: queued or running
	batches   map[string]*Batch // by batch id
	draining  bool
	nextID    int
	nextBatch int

	queue   chan *Job
	running atomic.Int64
	wg      sync.WaitGroup

	drain *drainEstimator // recent completions → Retry-After hints

	webhooks *webhookNotifier // nil without a webhook destination path

	recentMu sync.Mutex
	recent   []string // most recently completed fingerprints, newest last

	gossipStop chan struct{}
	gossipOnce sync.Once
	gossipWG   sync.WaitGroup
}

// New builds and starts a server (its workers run until Shutdown).
// With Options.JournalDir set it first replays the journal and
// re-enqueues every job a previous process accepted but never
// finished — jobs whose result meanwhile sits in the cache resolve
// without re-running.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 16
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBase == 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryBase < 0 {
		opts.RetryBase = 0
	}
	if opts.WatchdogGrace == 0 {
		opts.WatchdogGrace = 1.5
	}
	if opts.BreakerWindow == 0 {
		opts.BreakerWindow = 16
	}
	if opts.BreakerDegrade <= 0 {
		opts.BreakerDegrade = 0.5
	}
	if opts.BreakerShed <= 0 {
		opts.BreakerShed = 0.8
	}
	cache, err := NewCache(opts.CacheSize, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	var jn *journal.Journal
	var pending []journal.Record
	if opts.JournalDir != "" {
		jn, err = journal.Open(opts.JournalDir, journal.Options{
			SegmentBytes: opts.JournalSegmentBytes,
			NoSync:       opts.JournalNoSync,
		})
		if err != nil {
			return nil, err
		}
		pending = jn.Pending()
	}
	qsize := opts.QueueSize
	if len(pending) > qsize {
		// Recovery must never deadlock on its own queue.
		qsize = len(pending)
	}
	reg := obs.NewRegistry()
	s := &Server{
		opts:       opts,
		cache:      cache,
		metrics:    reg,
		stats:      newStats(reg),
		journal:    jn,
		jobs:       make(map[string]*Job),
		flight:     make(map[string]*Job),
		batches:    make(map[string]*Batch),
		queue:      make(chan *Job, qsize),
		drain:      newDrainEstimator(),
		gossipStop: make(chan struct{}),
	}
	s.webhooks = newWebhookNotifier(s.stats, opts)
	if opts.BreakerWindow > 0 {
		s.breaker = newBreaker(opts.BreakerWindow, opts.BreakerDegrade, opts.BreakerShed)
	}
	s.registerGauges()
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.opts.Run == nil {
		s.opts.Run = s.runPipeline
	}
	if s.opts.WrapRun != nil {
		s.opts.Run = s.opts.WrapRun(s.opts.Run)
	}
	if len(pending) > 0 {
		s.recoverJobs(pending)
		st := jn.Stats()
		log.Printf("service: journal: recovered %d job(s) from %d segment(s), %d record(s) replayed, %d torn byte(s) dropped",
			len(pending), st.Segments, st.Replayed, st.DroppedBytes)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	if opts.Cluster != nil && opts.GossipInterval > 0 {
		s.gossipWG.Add(1)
		go s.gossipLoop()
	}
	return s, nil
}

// JournalStats snapshots the job journal's replay and lifetime
// counters; ok is false when the server runs without a journal.
func (s *Server) JournalStats() (journal.Stats, bool) {
	if s.journal == nil {
		return journal.Stats{}, false
	}
	return s.journal.Stats(), true
}

// Cache exposes the server's result cache (read-mostly: /v1/result,
// stats, tests).
func (s *Server) Cache() *Cache { return s.cache }

// Outcome is what a submission produced: exactly one of Entry (cache
// hit) or Job (new or coalesced computation) is set. Dup marks a
// coalescing within a single batch (two items with one fingerprint)
// rather than onto a previously in-flight job.
type Outcome struct {
	Entry     *Entry
	Job       *Job
	Coalesced bool
	Dup       bool
}

// submit admits one resolved request: a batch of one through
// submitBatch, so single and batch submissions share one admission
// path.
func (s *Server) submit(req *resolved) (Outcome, error) {
	outs, err := s.submitBatch([]*resolved{req})
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// Job returns a previously accepted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one dequeued job through the retry ladder and
// publishes its outcome. A draining journal-backed server hands
// still-queued jobs back to the journal instead of executing them;
// a job whose result already sits in the cache (recovered duplicates,
// a twin completed on a shared cache dir) resolves without running.
func (s *Server) runJob(job *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)

	if s.journal != nil && s.isDraining() {
		s.finishRequeued(job)
		return
	}
	if e, ok := s.cache.Get(job.Fingerprint); ok {
		s.finishFromCache(job, e)
		return
	}

	for {
		attempt := job.beginAttempt()
		s.jlog(Record{Kind: journal.Started, JobID: job.ID, Key: job.Fingerprint,
			Attempt: attempt, Note: job.currentMapper()})
		job.emit(JobRunning)

		sum, err, watchdog := s.runAttempt(job)
		if err == nil {
			s.finishDone(job, sum)
			return
		}
		switch retryDecision(err, attempt, s.opts.MaxAttempts, job.currentMapper(), job.isDegraded(), watchdog) {
		case decideFail:
			s.finishFailed(job, sum, err)
			return
		case decideDegrade:
			next := DegradeMapper(job.currentMapper())
			log.Printf("service: job %s attempt %d over budget; degrading to %s", job.ID, attempt, next)
			job.degradeTo(next)
			s.stats.degraded.Add(1)
		default:
			s.stats.retried.Add(1)
		}
		if d := backoff(s.opts.RetryBase, attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-s.baseCtx.Done():
				t.Stop()
				s.finishFailed(job, sum, err)
				return
			}
		}
		if s.journal != nil && s.isDraining() {
			// The server started draining during the backoff; leave
			// the retry to the next process.
			s.finishRequeued(job)
			return
		}
	}
}

// runAttempt executes one attempt under the watchdog, converting a
// panicking executor into a PanicError instead of killing the worker.
// watchdog reports whether the stall watchdog — not the caller —
// cancelled the run.
func (s *Server) runAttempt(job *Job) (sum core.Summary, err error, watchdog bool) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	var tripped atomic.Bool
	if d := s.watchdogDeadline(job); d > 0 {
		t := time.AfterFunc(d, func() {
			tripped.Store(true)
			cancel()
		})
		defer t.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			err = failure.NewPanic(-1, r, debug.Stack())
		}
		watchdog = tripped.Load()
	}()
	if ferr := faultinject.Fire(faultinject.SiteServiceRun); ferr != nil {
		return core.Summary{}, fmt.Errorf("service: run %s: %w", job.ID, ferr), false
	}
	if owner, ok := s.shouldForward(job); ok {
		// Another peer owns this fingerprint: delegate the execution.
		// An unhandled outcome (owner down, ring disagreement) falls
		// through to local execution within the same attempt — the
		// fleet degrades to standalone behavior, never to an error.
		if fsum, ferr, handled := s.forwardAttempt(ctx, job, owner); handled {
			job.mu.Lock()
			job.remote = true
			job.mu.Unlock()
			return fsum, ferr, tripped.Load()
		}
	}
	// Count only attempts that reach the local executor: a forwarded
	// attempt is the owner's execution, and counting it here too would
	// make a fleet's summed executed_total read as duplicate work (the
	// finish paths apply the same rule to completed, failed and stage
	// time).
	s.stats.executed.Add(1)
	sum, err = s.opts.Run(ctx, job)
	return sum, err, tripped.Load()
}

// watchdogDeadline is how long an attempt may run before the watchdog
// cancels it (0 = unwatched).
func (s *Server) watchdogDeadline(job *Job) time.Duration {
	if s.opts.WatchdogGrace < 0 || job.Budgets.Total <= 0 {
		return 0
	}
	return time.Duration(float64(job.Budgets.Total) * s.opts.WatchdogGrace)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// finishDone publishes a successful attempt: cache, journal, breaker,
// waiters.
func (s *Server) finishDone(job *Job, sum core.Summary) {
	job.mu.Lock()
	job.finished = time.Now()
	job.status = JobDone
	job.summary = &sum
	degraded := job.degraded
	mapper := job.runMapper
	remote := job.remote
	job.mu.Unlock()
	if !remote {
		s.stats.completed.Inc()
		s.stats.recordStages(sum)
	}
	key := job.Fingerprint
	note := ""
	if degraded {
		// A degraded run answers a cheaper computation than the one
		// the fingerprint names; caching it under the original key
		// would poison future full-strength requests.
		key = Key(job.req.graph, job.req.arch, mapper, job.Seed, job.Budgets)
		note = "degraded to " + mapper
	}
	if perr := s.cache.Put(Entry{Fingerprint: key, Summary: sum}); perr != nil {
		// Persistence is best-effort; the in-memory entry serves.
		log.Printf("service: %v", perr)
	}
	s.jlog(Record{Kind: journal.Completed, JobID: job.ID, Key: job.Fingerprint,
		Attempt: job.Attempts(), Note: note})
	s.breaker.record(false)
	s.drain.record()
	s.rememberFingerprint(key)
	s.unregister(job)
	job.emit(JobDone)
	close(job.done)
	s.webhooks.notify(s, job)
}

// finishFailed publishes a terminal failure (salvaging the partial
// summary the ladder returned, when there is one).
func (s *Server) finishFailed(job *Job, sum core.Summary, err error) {
	job.mu.Lock()
	job.finished = time.Now()
	job.status = JobFailed
	job.err = err
	if sum.Kernel != "" || len(sum.Stages) > 0 {
		job.summary = &sum // partial result salvaged by the ladder
	}
	remote := job.remote
	job.mu.Unlock()
	if !remote {
		s.stats.recordFailure(err)
		s.stats.recordStages(sum)
	}
	s.jlog(Record{Kind: journal.Failed, JobID: job.ID, Key: job.Fingerprint,
		Attempt: job.Attempts(), Note: failureClass(err)})
	s.breaker.record(true)
	s.drain.record()
	s.unregister(job)
	job.emit(JobFailed)
	close(job.done)
	s.webhooks.notify(s, job)
}

// finishRequeued hands a job back to the journal for the next process.
func (s *Server) finishRequeued(job *Job) {
	job.mu.Lock()
	job.finished = time.Now()
	job.status = JobRequeued
	job.mu.Unlock()
	s.stats.requeued.Add(1)
	s.jlog(Record{Kind: journal.Requeued, JobID: job.ID, Key: job.Fingerprint,
		Attempt: job.Attempts(), Note: "draining"})
	s.unregister(job)
	job.emit(JobRequeued)
	close(job.done)
}

// finishFromCache resolves a job from an existing cache entry without
// executing it (the breaker sees no sample — nothing ran).
func (s *Server) finishFromCache(job *Job, e Entry) {
	job.mu.Lock()
	job.finished = time.Now()
	job.status = JobDone
	job.summary = &e.Summary
	job.mu.Unlock()
	s.stats.completed.Add(1)
	s.jlog(Record{Kind: journal.Completed, JobID: job.ID, Key: job.Fingerprint,
		Note: "resolved from cache"})
	s.drain.record()
	s.unregister(job)
	job.emit(JobDone)
	close(job.done)
	s.webhooks.notify(s, job)
}

// unregister drops the job from the in-flight index.
func (s *Server) unregister(job *Job) {
	s.mu.Lock()
	if s.flight[job.Fingerprint] == job {
		delete(s.flight, job.Fingerprint)
	}
	s.mu.Unlock()
}

// runPipeline is the default RunFunc: the real Panorama stack, mapper
// selected by name exactly as in the CLIs.
func (s *Server) runPipeline(ctx context.Context, job *Job) (core.Summary, error) {
	tr := obs.NewTrace(job.ID)
	job.mu.Lock()
	job.trace = tr
	job.mu.Unlock()
	// The retry/degrade provenance on the root span: a retried job's
	// trace says which attempt this is and which rung it ran on.
	tr.Root().Set("attempt", int64(job.Attempts()))
	tr.Root().Set("mapper", job.currentMapper())
	if job.isDegraded() {
		tr.Root().Set("degraded", "true")
	}
	ctx = obs.WithSpan(ctx, tr.Root())
	defer tr.Root().End()

	req := job.req
	cfg := core.Config{
		Seed:           job.Seed,
		RelaxOnFailure: true,
		Workers:        s.opts.PipelineWorkers,
		Budgets:        job.Budgets,
	}
	// The mapper comes from the core lowering registry; "pan-" selects
	// the guided pipeline around it, the bare name runs it as a
	// baseline.
	name := job.currentMapper()
	lower, err := core.NewLowerByName(bareMapper(name), job.Seed)
	if err != nil {
		return core.Summary{}, err
	}
	var res *core.Result
	if guided(name) {
		res, err = core.MapPanoramaCtx(ctx, req.graph, req.arch, lower, cfg)
	} else {
		// Baselines take no Config; apply the total budget here.
		bctx := ctx
		if job.Budgets.Total > 0 {
			var cancel context.CancelFunc
			bctx, cancel = context.WithTimeout(ctx, job.Budgets.Total)
			defer cancel()
		}
		res, err = core.MapBaselineCtx(bctx, req.graph, req.arch, lower)
	}
	if res == nil {
		return core.Summary{}, err
	}
	return res.Summarize(), err
}

// Shutdown stops accepting work, lets queued and in-flight jobs drain,
// and — if ctx fires first — cancels the remaining jobs' contexts and
// waits for them to unwind. It returns nil on a clean drain, ctx's
// error otherwise. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	s.gossipOnce.Do(func() { close(s.gossipStop) })
	s.gossipWG.Wait()
	s.webhooks.close(ctx)
	if s.journal != nil {
		// The workers have unwound (their terminal records are in), so
		// the journal can close; jobs it still holds live replay on the
		// next start.
		if cerr := s.journal.Close(); cerr != nil {
			log.Printf("service: journal close: %v", cerr)
		}
	}
	return err
}
