package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/journal"
	"panorama/internal/kernels"
	"panorama/internal/loadtest"
	"panorama/internal/service"
	"panorama/internal/ultrafast"
	"panorama/internal/verify"
)

// target is a live in-process panoramad on a loopback listener.
type target struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startTarget(dir string, workers int) (*target, error) {
	srv, err := service.New(service.Options{
		Workers: workers, PipelineWorkers: workers,
		CacheDir: filepath.Join(dir, "cache"), JournalDir: filepath.Join(dir, "journal"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	t := &target{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	return t, nil
}

// stop drains the service, closes the listener and waits for the
// serving goroutine to return.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if herr := t.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-t.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	t.client.CloseIdleConnections()
	return err
}

// reply is one request's outcome.
type reply struct {
	kernel          string
	due, sent, done time.Time
	status          int
	view            service.JobView
	err             string
}

func (r *reply) ok() bool {
	return r.err == "" && r.status == http.StatusOK && r.view.Status == service.JobDone &&
		r.view.Result != nil && r.view.Result.Success
}
func (r *reply) hit() bool          { return r.view.Cache == "hit" }
func (r *reply) latencyMS() float64 { return float64(r.done.Sub(r.due)) / float64(time.Millisecond) }
func (r *reply) lateMS() float64    { return float64(r.sent.Sub(r.due)) / float64(time.Millisecond) }

func (t *target) post(body []byte) (int, service.JobView, error) {
	var v service.JobView
	resp, err := t.client.Post(t.url+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, v, err
	}
	return resp.StatusCode, v, json.Unmarshal(data, &v)
}

// stream is the serve workload's generated request bodies.
type stream struct {
	items    []loadtest.Item
	bodies   [][]byte
	distinct int
}

func makeStream(w *Workload, seed int64, n int) (*stream, error) {
	wl, err := loadtest.NewWorkload(loadtest.WorkloadConfig{
		Seed: seed, Mix: loadtest.Mix{Single: 1}, Kernels: w.Kernels, Scale: w.Scale,
		Arch: w.Arch, Mapper: w.Mapper, WarmRatio: w.WarmRatio, DFGRatio: -1,
	})
	if err != nil {
		return nil, err
	}
	s := &stream{}
	for i := 0; i < n; i++ {
		it := wl.Next().Items[0]
		it.Wait = true
		body, err := json.Marshal(it)
		if err != nil {
			return nil, err
		}
		s.items = append(s.items, it)
		s.bodies = append(s.bodies, body)
	}
	s.distinct = len(wl.Issued())
	return s, nil
}

// warmUp maps every kernel once cold and once from the cache, under
// seeds the stream never issues (it counts up from seed*10^6).
func (t *target) warmUp(w *Workload) error {
	for round := 0; round < 2; round++ {
		for i, k := range w.Kernels {
			body, err := json.Marshal(loadtest.Item{Kernel: k, Scale: w.Scale, Arch: w.Arch,
				Mapper: w.Mapper, Seed: -int64(i + 1), Wait: true})
			if err != nil {
				return err
			}
			status, v, err := t.post(body)
			if err != nil {
				return err
			}
			if status != http.StatusOK || v.Result == nil || !v.Result.Success {
				return fmt.Errorf("warm-up request for %s: status %d", k, status)
			}
		}
	}
	return nil
}

// setupServe generates the stream and brings up a warmed target over
// dir. Repeated set-ups reuse dir, so later ones also pay the journal
// replay and the cache load of what earlier ones left behind.
func setupServe(w *Workload, cfg runConfig, dir string, n int) (*target, *stream, error) {
	st, err := makeStream(w, cfg.Seed, n)
	if err != nil {
		return nil, nil, err
	}
	t, err := startTarget(dir, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	if err := t.warmUp(w); err != nil {
		t.stop()
		return nil, nil, err
	}
	return t, st, nil
}

// drive sends the stream open loop: request i is due at start + i/rate,
// whatever happened to earlier ones, and its latency runs from when it
// was due. A single generator feeds at most cfg.Workers connections, so
// a stalled server shows up as lateness and latency, not as a lower
// offered rate.
func (t *target) drive(st *stream, rate float64, workers int, tr *tracer) []reply {
	n := len(st.bodies)
	replies := make([]reply, n)
	queue := make(chan int, n) // every request is queued exactly once
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &replies[i]
				r.sent = time.Now()
				sp := -1
				if tr != nil {
					sp = tr.begin(int64(i), -1, "http.map")
				}
				status, v, err := t.post(st.bodies[i])
				if tr != nil {
					tr.end(sp)
				}
				r.done = time.Now()
				r.status, r.view = status, v
				if err != nil {
					r.err = err.Error()
				}
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		replies[i].due, replies[i].kernel = due, st.items[i].Kernel
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return replies
}

// serveOutcome is the checked summary of one driven stream.
type serveOutcome struct {
	replies        []reply
	failed         int
	hits, misses   []float64 // latency ms of successful hits / cold+coalesced
	cold           []*reply  // executed misses (neither hit nor coalesced)
	late           []float64
	byKernel       map[string][]float64
	qomByKernel    map[string]float64
	withinLimit    int
	executed       int64
	coalesced      int64
	rejected       int64
	distinct       int
	achievedPerSec float64
	problems       []string
}

// zeroWalls strips the wall-clock fields, which legitimately differ
// between a cold run and the cached copy of it.
func zeroWalls(s core.Summary) core.Summary {
	s.ClusteringMS, s.ClusterMapMS, s.LowerMS, s.TotalMS = 0, 0, 0, 0
	stages := make([]core.StageRecord, len(s.Stages))
	copy(stages, s.Stages)
	for i := range stages {
		stages[i].Wall = 0
	}
	s.Stages = stages
	return s
}

// checkServe classifies the replies and runs the output checks: every
// request succeeded, every answer for a fingerprint equals the cold
// answer for it (walls zeroed), and the service executed no more jobs
// than distinct specs were issued.
func checkServe(w *Workload, st *stream, replies []reply, before, after service.Stats) *serveOutcome {
	o := &serveOutcome{replies: replies, byKernel: map[string][]float64{}, qomByKernel: map[string]float64{},
		executed: after.Executed - before.Executed, coalesced: after.Coalesced - before.Coalesced,
		rejected: after.Rejected - before.Rejected, distinct: st.distinct}
	ref := map[string]core.Summary{}
	for i := range replies {
		r := &replies[i]
		o.late = append(o.late, r.lateMS())
		if !r.ok() {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("request %d (%s): status %d %s %v", i, st.items[i].Kernel, r.status, r.err, r.view.Error))
			continue
		}
		if !r.hit() {
			if _, ok := ref[r.view.Fingerprint]; !ok {
				ref[r.view.Fingerprint] = zeroWalls(*r.view.Result)
			}
		}
	}
	for i := range replies {
		r := &replies[i]
		if !r.ok() {
			continue
		}
		want, ok := ref[r.view.Fingerprint]
		if !ok || !reflect.DeepEqual(zeroWalls(*r.view.Result), want) {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("request %d: summary differs from the cold result for %.12s", i, r.view.Fingerprint))
			continue
		}
		lat := r.latencyMS()
		if r.hit() {
			o.hits = append(o.hits, lat)
		} else {
			o.misses = append(o.misses, lat)
			if r.view.Cache == "" {
				o.cold = append(o.cold, r)
			}
		}
		k := st.items[i].Kernel
		o.byKernel[k] = append(o.byKernel[k], lat)
		o.qomByKernel[k] = r.view.Result.QoM
		if lat <= w.LatencyLimitMS {
			o.withinLimit++
		}
	}
	if o.executed > int64(o.distinct) {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("executed %d jobs for %d distinct specs", o.executed, o.distinct))
	}
	if n := len(replies); n > 0 {
		o.achievedPerSec = float64(n) / replies[n-1].done.Sub(replies[0].due).Seconds()
	}
	return o
}

func (o *serveOutcome) coldMS(field func(v service.JobView) float64) []float64 {
	var xs []float64
	for _, r := range o.cold {
		xs = append(xs, field(r.view))
	}
	return xs
}

func runServe(w *Workload, cfg runConfig, out io.Writer) (*Result, error) {
	n := max(int(w.RatePerS*cfg.Seconds), cfg.MinRequests)
	if cfg.Trace {
		n = max(n/2, 1)
	}
	dir, err := runDir(cfg, w.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var t *target
	var st *stream
	for setupMore(setups, cfg.SetupReps) {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		t, st, err = setupServe(w, cfg, filepath.Join(dir, "setup"), n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.Trace {
		return traceServe(w, cfg, dir, t, st, median(setups), out)
	}

	before := t.srv.Stats()
	a0 := totalAlloc()
	replies := t.drive(st, w.RatePerS, cfg.Workers, nil)
	alloc := totalAlloc() - a0
	o := checkServe(w, st, replies, before, t.srv.Stats())
	if err := t.stop(); err != nil {
		return nil, err
	}

	var kernelMed, qoms []float64
	for _, k := range sortedKeys(o.byKernel) {
		kernelMed = append(kernelMed, median(o.byKernel[k]))
		qoms = append(qoms, o.qomByKernel[k])
	}
	// One pass over the kernels as the service compiles them: the sum
	// of each kernel's median cold run time.
	coldByKernel := map[string][]float64{}
	for _, r := range o.cold {
		coldByKernel[r.kernel] = append(coldByKernel[r.kernel], r.view.RunMS)
	}
	passMS := 0.0
	for _, xs := range coldByKernel {
		passMS += median(xs)
	}
	res := &Result{
		Correct: o.failed == 0, Attempted: len(replies), Failed: o.failed,
		Metrics: map[string]Metric{
			"setup_s":     {median(setups), "s"},
			"compile_s":   {passMS / 1000, "s"},
			"geomean_ms":  {geomean(kernelMed), "ms"},
			"qom_geomean": {geomean(qoms), "ratio"},
			"alloc_mb":    {float64(alloc) / float64(len(replies)) * 1000 / (1 << 20), "MB"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
			"slo_ratio":   {float64(o.withinLimit) / float64(len(replies)), "ratio"},
		},
	}
	reportServe(out, w, cfg, o, res, median(setups), len(setups))
	return res, nil
}

// histOf records latencies (ms) into a mergeable nanosecond histogram,
// the layout the load harness and panoramaload reports share.
func histOf(xs []float64) loadtest.HistSnapshot {
	var h loadtest.Hist
	for _, x := range xs {
		h.Record(uint64(x * float64(time.Millisecond)))
	}
	return h.Snapshot()
}

// pct formats the median and the highest nameable tail percentile of
// xs, with the sample count.
func pct(xs []float64) string {
	q, label, ok := tailQuantile(len(xs))
	if !ok || label == "p50" {
		return fmt.Sprintf("p50 %.3f ms (n=%d, too few samples for a tail)", median(xs), len(xs))
	}
	return fmt.Sprintf("p50 %.3f ms, %s %.3f ms (n=%d)", median(xs), label, quantile(xs, q), len(xs))
}

func reportServe(out io.Writer, w *Workload, cfg runConfig, o *serveOutcome, res *Result, setup float64, setupCount int) {
	n := len(o.replies)
	fmt.Fprintf(out, "# %s: %s on %s, scale %g, %.0f req/s open loop, warm %.2f, %d connections, seed %d\n",
		w.Name, w.Mapper, w.Arch, w.Scale, w.RatePerS, w.WarmRatio, cfg.Workers, cfg.Seed)
	fmt.Fprintf(out, "sent %d, achieved %.1f req/s, failed %d, hits %d, misses %d (cold %d), executed %d for %d distinct specs\n",
		n, o.achievedPerSec, o.failed, len(o.hits), len(o.misses), len(o.cold), o.executed, o.distinct)
	fmt.Fprintf(out, "serve_hit   %s\n", pct(o.hits))
	fmt.Fprintf(out, "serve_miss  %s\n", pct(o.misses))
	fmt.Fprintf(out, "loadgen late %s\n", pct(o.late))
	m := res.Metrics
	fmt.Fprintf(out, "serve_slo_ratio    %10.4f ratio (limit %g ms, n=%d)\n", m["slo_ratio"].Value, w.LatencyLimitMS, n)
	fmt.Fprintf(out, "compile_s          %10.5f s     (sum over kernels of the median cold runMS, n=%d)\n", m["compile_s"].Value, len(o.cold))
	fmt.Fprintf(out, "geomean_ms         %10.3f ms    (%d kernels' median latency)\n", m["geomean_ms"].Value, len(o.byKernel))
	fmt.Fprintf(out, "qom_geomean        %10.4f ratio (%d kernels)\n", m["qom_geomean"].Value, len(o.qomByKernel))
	fmt.Fprintf(out, "alloc_mb           %10.2f MB per 1000 requests (n=%d)\n", m["alloc_mb"].Value, n)
	fmt.Fprintf(out, "peak_rss_mb        %10.1f MB\n", m["peak_rss_mb"].Value)
	fmt.Fprintf(out, "setup_s            %10.4f s     (median of %d set-ups)\n", setup, setupCount)
	fmt.Fprintf(out, "error_ratio        %10.4f ratio (%d of %d failed)\n", float64(o.failed)/float64(n), o.failed, n)
	for i, p := range o.problems {
		if i == 20 {
			fmt.Fprintf(out, "  ... %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(out, "  FAILED %s\n", p)
	}
}

// jobPayload lays out a journal Submitted blob the way the service
// documents it (version 1: DFG binary, arch JSON, mapper, seed, four
// budgets), so the standalone appends write records of the same size.
func jobPayload(g *dfg.Graph, a *arch.CGRA, mapper string, seed int64) ([]byte, error) {
	gbin, err := g.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var ab bytes.Buffer
	if err := a.WriteJSON(&ab); err != nil {
		return nil, err
	}
	buf := []byte{1}
	buf = binary.AppendUvarint(buf, uint64(len(gbin)))
	buf = append(buf, gbin...)
	buf = binary.AppendUvarint(buf, uint64(ab.Len()))
	buf = append(buf, ab.Bytes()...)
	buf = binary.AppendUvarint(buf, uint64(len(mapper)))
	buf = append(buf, mapper...)
	buf = binary.AppendVarint(buf, seed)
	for i := 0; i < 4; i++ {
		buf = binary.AppendVarint(buf, 0)
	}
	return buf, nil
}

// traceServe is the traced run. It drives half the stream untraced on
// the set-up target and the same half again, traced, on a fresh one,
// so trace.overhead_ratio compares like with like. Beside the HTTP
// ops it times the dfg, service, journal and lower-mapper public calls
// on the traced half's request bodies and results.
func traceServe(w *Workload, cfg runConfig, dir string, t *target, st *stream, setup float64, out io.Writer) (*Result, error) {
	before := t.srv.Stats()
	replies := t.drive(st, w.RatePerS, cfg.Workers, nil)
	// The hit and miss latencies come from this untraced half.
	u := checkServe(w, st, replies, before, t.srv.Stats())
	if err := t.stop(); err != nil {
		return nil, err
	}
	var untraced []float64
	for i := range replies {
		untraced = append(untraced, replies[i].latencyMS())
	}

	t2, err := startTarget(filepath.Join(dir, "traced"), cfg.Workers)
	if err != nil {
		return nil, err
	}
	if err := t2.warmUp(w); err != nil {
		t2.stop()
		return nil, err
	}
	tr := newTracer()
	before = t2.srv.Stats()
	j0 := counters("panorama_journal_records_total")
	replies = t2.drive(st, w.RatePerS, cfg.Workers, tr)
	journalRecords := counterDelta(j0, counters("panorama_journal_records_total"))["panorama_journal_records_total"]
	o := checkServe(w, st, replies, before, t2.srv.Stats())
	if err := t2.stop(); err != nil {
		return nil, err
	}
	var traced []float64
	for i := range replies {
		traced = append(traced, replies[i].latencyMS())
	}

	m, err := serveLayers(w, dir, st, o, tr)
	if err != nil {
		return nil, err
	}
	m["journal.records_per_miss"] = ratio(journalRecords, float64(len(o.cold)))
	m["service.queue_wait_ms"] = median(o.coldMS(func(v service.JobView) float64 { return v.QueuedMS }))
	m["service.run_ms"] = median(o.coldMS(func(v service.JobView) float64 { return v.RunMS }))
	m["service.hit_ratio"] = ratio(float64(len(o.hits)), float64(len(o.hits)+len(o.misses)))
	m["service.coalesced"] = float64(o.coalesced)
	m["service.rejected"] = float64(o.rejected)
	m["service.executed_per_distinct"] = ratio(float64(o.executed), float64(o.distinct))
	m["loadgen.late_p99_ms"] = tail(o.late)
	m["loadgen.sent"] = float64(len(replies))
	m["loadgen.failed"] = float64(o.failed)
	m["trace.overhead_ratio"] = ratio(median(traced), median(untraced))
	m["serve.hit_p50_ms"], m["serve.hit_tail_ms"] = median(u.hits), tail(u.hits)
	m["serve.miss_p50_ms"], m["serve.miss_tail_ms"] = median(u.misses), tail(u.misses)
	res := &Result{Correct: o.failed+u.failed == 0, Attempted: 2 * len(replies), Failed: o.failed + u.failed, Metrics: layerMetrics(m)}

	fmt.Fprintf(out, "# %s traced: %d requests at %.0f req/s, set-up %.3fs\n", w.Name, len(replies), w.RatePerS, setup)
	fmt.Fprintf(out, "http.map median %.3f ms traced vs %.3f ms untraced\n", median(traced), median(untraced))
	fmt.Fprintf(out, "per cold request: service run %.3f ms (ultrafast.map %.3f ms, verify.check %.3f ms), queue wait %.3f ms\n",
		m["service.run_ms"], m["ultrafast.map_ms"], m["verify.check_ms"], m["service.queue_wait_ms"])
	fmt.Fprintf(out, "  journal %.2f records x %.3f ms append, cache put %.3f ms; per request: key %.1f us, fingerprint %.1f us, codec %.1f us, cache get %.1f us\n",
		m["journal.records_per_miss"], m["journal.append_ms"], m["service.cache_put_ms"],
		m["service.key_us"], m["dfg.fingerprint_us"], m["dfg.codec_us"], m["service.cache_get_us"])
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-30s %12.4f\n", k, m[k])
	}
	for i, p := range append(u.problems, o.problems...) {
		if i == 20 {
			break
		}
		fmt.Fprintf(out, "  FAILED %s\n", p)
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-%d.json", w.Name, cfg.Seed))
	if err := tr.write(path, map[string]any{"workload": w.Name, "seed": cfg.Seed, "metrics": m,
		"histogramsNS": map[string]loadtest.HistSnapshot{
			"hit": histOf(u.hits), "miss": histOf(u.misses), "late": histOf(u.late)}}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "span log: %s\n", path)
	return res, nil
}

// serveLayers times each service-side public call on the traced
// requests: per request the kernel's DFG build, the fingerprint, the
// DFG codec, the cache key and a cache lookup; per cold request a cache put, the three journal
// records the service writes for a job (fsync'd, in the same
// filesystem), and the lower mapper plus the legality oracle. Times
// are medians per call.
func serveLayers(w *Workload, dir string, st *stream, o *serveOutcome, tr *tracer) (map[string]float64, error) {
	a, err := archByName(w.Arch)
	if err != nil {
		return nil, err
	}
	cache, err := service.NewCache(service.DefaultCacheSize, filepath.Join(dir, "bench-cache"))
	if err != nil {
		return nil, err
	}
	jr, err := journal.Open(filepath.Join(dir, "bench-journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	defer jr.Close()
	per := map[string][]float64{}
	timed := func(op int64, name string, f func() error) error {
		i := tr.begin(op, -1, name)
		t0 := time.Now()
		err := f()
		per[name] = append(per[name], float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(i)
		return err
	}
	var verifyFailures float64
	c0 := counters("panorama_ultrafast_attempts_total")
	mapped := 0
	for i, it := range st.items {
		r := &o.replies[i]
		if !r.ok() {
			continue
		}
		op := int64(i)
		// The service builds the kernel's DFG for every request.
		var g *dfg.Graph
		if err := timed(op, "dfg.build", func() error {
			spec, err := kernels.ByName(it.Kernel)
			if err != nil {
				return err
			}
			g = spec.Build(it.Scale)
			return g.Freeze()
		}); err != nil {
			return nil, err
		}
		timed(op, "dfg.fingerprint", func() error { g.Fingerprint(); return nil })
		if err := timed(op, "dfg.codec", func() error { _, err := g.MarshalBinary(); return err }); err != nil {
			return nil, err
		}
		var key string
		timed(op, "service.key", func() error { key = service.Key(g, a, it.Mapper, it.Seed, core.Budgets{}); return nil })
		if key != r.view.Fingerprint {
			return nil, fmt.Errorf("service.Key %.12s disagrees with the served fingerprint %.12s", key, r.view.Fingerprint)
		}
		var found bool
		timed(op, "service.cache_get", func() error { _, found = cache.Get(key); return nil })
		if found {
			continue
		}
		if err := timed(op, "service.cache_put", func() error {
			return cache.Put(service.Entry{Fingerprint: key, Summary: *r.view.Result})
		}); err != nil {
			return nil, err
		}
		blob, err := jobPayload(g, a, it.Mapper, it.Seed)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("job-%06d", i)
		for _, rec := range []journal.Record{
			{Kind: journal.Submitted, JobID: id, Key: key, Blob: blob},
			{Kind: journal.Started, JobID: id, Key: key, Attempt: 1, Note: it.Mapper},
			{Kind: journal.Completed, JobID: id, Key: key, Attempt: 1},
		} {
			if err := timed(op, "journal.append", func() error { return jr.Append(rec) }); err != nil {
				return nil, err
			}
		}
		var ur *ultrafast.Result
		if err := timed(op, "ultrafast.map", func() error {
			var err error
			ur, err = ultrafast.MapCtx(context.Background(), g, a, ultrafast.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		mapped++
		if ur.Success {
			timed(op, "verify.check", func() error {
				if err := verify.Check(g, a, ur.Mapping.Verifiable(0), nil); err != nil {
					verifyFailures++
				}
				return nil
			})
		}
	}
	med := func(name string) float64 { return median(per[name]) }
	return map[string]float64{
		"dfg.build_us":          1000 * med("dfg.build"),
		"dfg.fingerprint_us":    1000 * med("dfg.fingerprint"),
		"dfg.codec_us":          1000 * med("dfg.codec"),
		"service.key_us":        1000 * med("service.key"),
		"service.cache_get_us":  1000 * med("service.cache_get"),
		"service.cache_put_ms":  med("service.cache_put"),
		"journal.append_ms":     med("journal.append"),
		"ultrafast.map_ms":      med("ultrafast.map"),
		"ultrafast.ii_attempts": ratio(counterDelta(c0, counters("panorama_ultrafast_attempts_total"))["panorama_ultrafast_attempts_total"], float64(mapped)),
		"verify.check_ms":       med("verify.check"),
		"verify.failures":       verifyFailures,
	}, nil
}
