package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"panorama/internal/obs/obstest"
)

func TestCounterAndVec(t *testing.T) {
	c := NewCounter("obstest_plain_total", "plain test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter at %d, want 5", c.Value())
	}

	vec := NewCounterVec("obstest_labelled_total", "labelled test counter", "site")
	vec.With("a").Add(2)
	vec.With("b").Inc()
	if vec.With("a") != vec.With("a") {
		t.Fatal("With must return the same child for the same labels")
	}
	if vec.With("a").Value() != 2 || vec.With("b").Value() != 1 {
		t.Fatal("labelled children not independent")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("obstest_hist", "test histogram", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum %g, want 111.5", h.Sum())
	}
	// sample() is cumulative: le=1 -> 2 (0.5 and the boundary value 1),
	// le=5 -> 3, le=10 -> 4, +Inf -> 5.
	s := h.sample()
	want := []float64{2, 3, 4, 5, 111.5, 5}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sample %v, want %v", s, want)
		}
	}
}

// Func registers callback children: a labelled counter family with
// one callback per label value, and a label-less gauge, both sampled
// at exposition time.
func TestRegistryFunc(t *testing.T) {
	r := NewRegistry()
	var ns atomic.Int64
	for _, stage := range []string{"lower", "clustering"} {
		r.Func("counter", "functest_seconds_total", "per-stage seconds", []string{"stage"}, []string{stage},
			func() float64 { return float64(ns.Load()) / 1e9 })
	}
	depth := 3
	r.Func("gauge", "functest_depth", "queue depth", nil, nil, func() float64 { return float64(depth) })
	ns.Store(1500000000)
	depth = 7

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP functest_depth queue depth
# TYPE functest_depth gauge
functest_depth 7
# HELP functest_seconds_total per-stage seconds
# TYPE functest_seconds_total counter
functest_seconds_total{stage="clustering"} 1.5
functest_seconds_total{stage="lower"} 1.5
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	snap := r.Snapshot()
	if snap["functest_depth"] != 7 || snap[`functest_seconds_total{stage="lower"}`] != 1.5 {
		t.Fatalf("snapshot does not sample the callbacks: %v", snap)
	}
}

// ParseSamples reads a WriteProm body back into exactly the map
// Snapshot builds: every shape, labels, floats and histograms.
func TestParseSamplesMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("parsetest_plain_total", "plain").Add(12)
	vec := r.CounterVec("parsetest_labelled_total", "labelled", "class", "site")
	vec.With("budget", "a").Inc()
	vec.With("other", `q"uote`).Add(3)
	r.Func("gauge", "parsetest_rate", "rate", nil, nil, func() float64 { return 1.0 / 3 })
	h := &HistogramVec{f: r.register("parsetest_seconds", "hist", "histogram", []string{"stage"}), bounds: TimeBuckets}
	h.With("lower").Observe(0.2)
	h.With("lower").Observe(7.25)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSamples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, snapshot has %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("sample %s: parsed %v (present %v), snapshot %v", k, g, ok, v)
		}
	}
	if _, err := ParseSamples(strings.NewReader("no_value_here\n")); err == nil {
		t.Fatal("a sample line without a value must be an error")
	}
}

func TestReregisterConflictPanics(t *testing.T) {
	NewCounter("obstest_conflict_total", "first registration")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type must panic")
		}
	}()
	NewHistogram("obstest_conflict_total", "as a histogram", TimeBuckets)
}

func TestSnapshotShapes(t *testing.T) {
	NewCounterVec("obstest_snap_total", "snapshot test", "k").With("v").Add(3)
	NewHistogram("obstest_snap_hist", "snapshot histogram", IIBuckets).Observe(4)
	snap := Default.Snapshot()
	if snap[`obstest_snap_total{k="v"}`] != 3 {
		t.Fatalf("labelled counter missing from snapshot: %v", snap)
	}
	if snap["obstest_snap_hist_sum"] != 4 || snap["obstest_snap_hist_count"] != 1 {
		t.Fatal("histogram sum/count missing from snapshot")
	}
}

func TestWritePromIsValidAndStable(t *testing.T) {
	// Exercise every family shape, then validate the whole Default
	// registry (this test binary's families plus the package-level ones
	// other tests registered) against the exposition format.
	NewCounter("obstest_prom_total", "prom test counter").Inc()
	NewCounterVec("obstest_prom_labelled_total", "labelled", "stage").With("clustering").Inc()
	NewHistogramVec("obstest_prom_seconds", "labelled histogram", TimeBuckets, "stage").
		With("lower").Observe(0.2)
	Default.Func("gauge", "obstest_prom_gauge", "gauge", nil, nil, func() float64 { return 2.5 })

	var a, b strings.Builder
	if err := Default.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateExposition(a.String()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, a.String())
	}
	// No metric activity between two writes: output must be
	// byte-identical (sorted families, sorted label sets).
	if err := Default.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteProm output not stable across consecutive calls")
	}
	for _, want := range []string{
		"# TYPE obstest_prom_total counter",
		`obstest_prom_labelled_total{stage="clustering"} 1`,
		`obstest_prom_seconds_bucket{stage="lower",le="0.25"} 1`,
		`obstest_prom_seconds_count{stage="lower"} 1`,
		"obstest_prom_gauge 2.5",
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, a.String())
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	c := NewCounter("obstest_conc_total", "concurrency test")
	h := NewHistogram("obstest_conc_hist", "concurrency histogram", []float64{1, 2})
	vec := NewCounterVec("obstest_conc_vec_total", "concurrency vec", "g")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := vec.With("x")
			for i := 0; i < 1000; i++ {
				c.Inc()
				child.Inc()
				h.Observe(float64(i % 3))
				if i%100 == 0 {
					var sb strings.Builder
					_ = Default.WriteProm(&sb) // concurrent exposition
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 8000 || vec.With("x").Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: %d %d %d", c.Value(), vec.With("x").Value(), h.Count())
	}
}
