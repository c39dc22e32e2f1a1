package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"panorama/internal/core"
)

// crashForTest hard-drops the server the way a dead process would:
// the journal stops accepting records first (so unwinding jobs cannot
// write their terminal records, exactly like a crash mid-flight), then
// every running job's context is cut and the workers are collected.
// The on-disk journal and cache are left exactly as a kill -9 would.
func (s *Server) crashForTest() {
	s.journal.Close()
	s.baseCancel()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// crashEnv is the state shared across the simulated process boundary:
// completion counts per fingerprint, so the exactly-once property is
// checked over both processes together.
type crashEnv struct {
	mu          sync.Mutex
	completions map[string]int
}

func (e *crashEnv) complete(fp string) {
	e.mu.Lock()
	e.completions[fp]++
	e.mu.Unlock()
}

// deterministic summary per job: byte-identical across processes by
// construction, so any divergence the test sees is real state leakage.
func crashSummary(job *Job) core.Summary {
	return core.Summary{
		Kernel:  "crash-" + job.Fingerprint[:8],
		Success: true,
		MII:     2,
		II:      int(job.Seed) + 2,
	}
}

// The acceptance scenario: N jobs enqueued, the service hard-dropped
// mid-flight, the journal reopened into a fresh Service — every job
// must complete exactly once with byte-identical summaries.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	const n = 8
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	cdir := filepath.Join(base, "cache")
	env := &crashEnv{completions: make(map[string]int)}
	block := make(chan struct{})

	mkRun := func(blocking bool) RunFunc {
		return func(ctx context.Context, job *Job) (core.Summary, error) {
			if blocking && job.Seed > 3 {
				select {
				case <-block:
				case <-ctx.Done():
					return core.Summary{}, ctx.Err()
				}
			}
			sum := crashSummary(job)
			env.complete(job.Fingerprint)
			return sum, nil
		}
	}

	srv1, err := New(Options{
		Workers:       2,
		QueueSize:     n,
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		RetryBase:     -1,
		Run:           mkRun(true),
	})
	if err != nil {
		t.Fatal(err)
	}

	type jobRef struct {
		id, fp  string
		preCopy []byte // summary JSON for jobs completed before the crash
	}
	refs := make([]jobRef, 0, n)
	for seed := 1; seed <= n; seed++ {
		res, err := srv1.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "pan-spr", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv1.submit(res)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, jobRef{id: out.Job.ID, fp: out.Job.Fingerprint})
	}

	// Seeds 1-3 complete; 4 and 5 stall in flight; 6-8 sit queued.
	for i := 0; i < 3; i++ {
		select {
		case <-srv1.jobByID(t, refs[i].id).Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished before the crash", refs[i].id)
		}
		sum, ok := srv1.jobByID(t, refs[i].id).Summary()
		if !ok {
			t.Fatalf("job %s has no summary", refs[i].id)
		}
		refs[i].preCopy, _ = json.Marshal(sum)
	}
	waitFor(t, func() bool { return int(srv1.running.Load()) == 2 }, "both workers to stall in flight")

	srv1.crashForTest()

	// Process 2: same journal and cache, nothing shared in memory.
	srv2, err := New(Options{
		Workers:       2,
		QueueSize:     4, // smaller than the recovered set: New must grow the queue
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		RetryBase:     -1,
		Run:           mkRun(false),
	})
	if err != nil {
		t.Fatalf("reopening the journal into a fresh service: %v", err)
	}
	defer srv2.Shutdown(context.Background())

	if st := metricsOf(t, srv2); st["panorama_service_recovered_total"] != 5 {
		t.Fatalf("recovered %v jobs, want 5 (seeds 4-8)", st["panorama_service_recovered_total"])
	}
	for _, ref := range refs[3:] {
		job, ok := srv2.Job(ref.id)
		if !ok {
			t.Fatalf("job %s not recovered under its original id", ref.id)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("recovered job %s never completed", ref.id)
		}
		if job.Err() != nil {
			t.Fatalf("recovered job %s failed: %v", ref.id, job.Err())
		}
	}

	// Exactly once: every fingerprint completed in exactly one process.
	env.mu.Lock()
	defer env.mu.Unlock()
	if len(env.completions) != n {
		t.Fatalf("%d distinct jobs completed, want %d", len(env.completions), n)
	}
	for fp, count := range env.completions {
		if count != 1 {
			t.Fatalf("fingerprint %s completed %d times, want exactly once", fp, count)
		}
	}

	// Byte-identical: pre-crash results come back from the persistent
	// cache unchanged, and recovered jobs produced the deterministic
	// summary their fingerprint demands.
	for i, ref := range refs {
		e, ok := srv2.Cache().Get(ref.fp)
		if !ok {
			t.Fatalf("job %s result missing from the reopened cache", ref.id)
		}
		got, _ := json.Marshal(e.Summary)
		var want []byte
		if i < 3 {
			want = ref.preCopy
		} else {
			job, _ := srv2.Job(ref.id)
			sum, _ := job.Summary()
			want, _ = json.Marshal(sum)
		}
		if string(got) != string(want) {
			t.Fatalf("job %s summary changed across the crash:\npre:  %s\npost: %s", ref.id, want, got)
		}
	}

	// Job IDs continue past the recovered ones — no collisions.
	res, err := srv2.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Mapper: "pan-spr", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv2.submit(res)
	if err != nil {
		t.Fatal(err)
	}
	if out.Job.ID != fmt.Sprintf("job-%06d", n+1) {
		t.Fatalf("post-recovery job id %s, want job-%06d", out.Job.ID, n+1)
	}
}

func (s *Server) jobByID(t *testing.T, id string) *Job {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	return job
}

// A torn journal tail — the crash landed mid-write, or the disk ate
// trailing bytes — must not fail startup, and every intact record must
// still recover.
func TestCrashRecoveryTornTail(t *testing.T) {
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	block := make(chan struct{})
	srv1, err := New(Options{
		Workers:       1,
		QueueSize:     4,
		JournalDir:    jdir,
		JournalNoSync: true,
		RetryBase:     -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			select {
			case <-block:
				return crashSummary(job), nil
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 2)
	for seed := 1; seed <= 2; seed++ {
		res, err := srv1.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv1.submit(res)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, out.Job.ID)
	}
	srv1.crashForTest()

	// Tear the tail: a half-written record after the intact ones.
	segs, err := filepath.Glob(filepath.Join(jdir, "*.pjrn"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segment found: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(Options{
		Workers:       1,
		JournalDir:    jdir,
		JournalNoSync: true,
		RetryBase:     -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return crashSummary(job), nil
		},
	})
	if err != nil {
		t.Fatalf("startup over a torn journal: %v", err)
	}
	defer srv2.Shutdown(context.Background())
	js, ok := srv2.JournalStats()
	if !ok || js.DroppedBytes == 0 {
		t.Fatalf("torn bytes not detected: %+v", js)
	}
	for _, id := range ids {
		job, ok := srv2.Job(id)
		if !ok {
			t.Fatalf("intact job %s lost to the torn tail", id)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("recovered job %s never completed", id)
		}
		if job.Err() != nil {
			t.Fatalf("recovered job %s failed: %v", id, job.Err())
		}
	}
}

// The graceful path: a draining journal-backed server marks still-
// queued jobs requeue-on-restart instead of cancelling them, and the
// next process resumes them.
func TestDrainRequeuesAndRestartResumes(t *testing.T) {
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	cdir := filepath.Join(base, "cache")
	release := make(chan struct{})
	srv1, err := New(Options{
		Workers:       1,
		QueueSize:     4,
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		RetryBase:     -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			select {
			case <-release:
				return crashSummary(job), nil
			case <-ctx.Done():
				return core.Summary{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	jobs := make([]*Job, 0, 3)
	for seed := 1; seed <= 3; seed++ {
		res, err := srv1.resolve(&Request{Kernel: "fir", Scale: 0.25, Arch: "8x8", Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv1.submit(res)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, out.Job)
	}
	waitFor(t, func() bool { return int(srv1.running.Load()) == 1 }, "the first job to start")
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}

	// The in-flight job finished; the queued ones were handed back.
	if st := jobs[0].View().Status; st != JobDone {
		t.Fatalf("in-flight job status %q, want done", st)
	}
	requeued := 0
	for _, j := range jobs[1:] {
		if j.View().Status == JobRequeued {
			requeued++
		}
	}
	if requeued == 0 {
		t.Fatal("no queued job was marked requeue-on-restart by the drain")
	}
	if st := metricsOf(t, srv1); int(st["panorama_service_requeued_total"]) != requeued {
		t.Fatalf("requeued stat %v, want %v", st["panorama_service_requeued_total"], requeued)
	}

	srv2, err := New(Options{
		Workers:       1,
		JournalDir:    jdir,
		JournalNoSync: true,
		CacheDir:      cdir,
		RetryBase:     -1,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			return crashSummary(job), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	if st := metricsOf(t, srv2); int(st["panorama_service_recovered_total"]) != requeued {
		t.Fatalf("recovered %v jobs after drain, want %v", st["panorama_service_recovered_total"], requeued)
	}
	for _, j := range jobs[1:] {
		if j.View().Status != JobRequeued {
			continue
		}
		job, ok := srv2.Job(j.ID)
		if !ok {
			t.Fatalf("requeued job %s not resumed", j.ID)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("resumed job %s never completed", j.ID)
		}
		if job.Err() != nil {
			t.Fatalf("resumed job %s failed: %v", j.ID, job.Err())
		}
	}
}
