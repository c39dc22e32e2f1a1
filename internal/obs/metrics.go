package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide metrics registry. Package-level metric
// variables across the pipeline register here at init time; panoramad
// serves it at /metricsz (after each server's own registry) and the
// bench harness diffs its Snapshot for the per-table effort appendix.
var Default = NewRegistry()

// Registry holds metric families and serialises them in Prometheus
// text exposition format. Registration takes the registry lock;
// updating a registered metric touches only atomics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric family: a help string, a type, a label
// schema, and children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu       sync.Mutex
	children map[string]metric
}

// metric is one labelled child of a family.
type metric interface {
	sample() []float64 // counter/gauge: {value}; histogram: buckets..., sum, count
}

// NewRegistry returns an empty registry. Most code uses Default; tests
// that need isolation build their own.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds (or fetches) a family, enforcing one type and label
// schema per name.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		children: make(map[string]metric)}
	r.fams[name] = f
	return f
}

// child fetches or creates the labelled child of a family.
func (f *family) child(vals []string, mk func() metric) metric {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := mk()
	f.children[key] = m
	return m
}

// Counter is a monotonically increasing int64. Add/Inc are a single
// atomic add — safe on every hot path.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// monotone; callers batch per-attempt totals).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) sample() []float64 { return []float64{float64(c.v.Load())} }

// CounterVec is a counter family with labels; With resolves one child,
// which callers may retain to skip the lookup on hot paths.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values.
func (v *CounterVec) With(vals ...string) *Counter {
	return v.f.child(vals, func() metric { return &Counter{} }).(*Counter)
}

// Counter registers (or fetches) a label-less counter on r.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec registers (or fetches) a labelled counter family on r.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// NewCounter registers a label-less counter on Default.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewCounterVec registers a labelled counter family on Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.CounterVec(name, help, labels...)
}

// funcSample is a callback child: read at exposition time, so live
// values (queue depth, float-valued totals kept elsewhere) need no
// write-path bookkeeping.
type funcSample func() float64

func (f funcSample) sample() []float64 { return []float64{f()} }

// Func registers fn as the child of family name (type typ, "counter"
// or "gauge") with the given label values; fn is sampled on every
// WriteProm and Snapshot. Registering the same label values again
// keeps the first callback.
func (r *Registry) Func(typ, name, help string, labels, vals []string, fn func() float64) {
	r.register(name, help, typ, labels).child(vals, func() metric { return funcSample(fn) })
}

// Histogram is a fixed-bucket distribution. Observe is an atomic
// bucket increment plus a CAS-accumulated sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) sample() []float64 {
	out := make([]float64, 0, len(h.bounds)+3)
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		out = append(out, float64(cum))
	}
	out = append(out, h.Sum(), float64(h.count.Load()))
	return out
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return v.f.child(vals, func() metric { return newHistogram(v.bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// NewHistogram registers a label-less histogram on Default. Bounds are
// ascending bucket upper limits; +Inf is implicit.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	f := Default.register(name, help, "histogram", nil)
	return f.child(nil, func() metric { return newHistogram(bounds) }).(*Histogram)
}

// NewHistogramVec registers a labelled histogram family on Default.
func NewHistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: Default.register(name, help, "histogram", labels), bounds: bounds}
}

// TimeBuckets is the default latency bucket set (seconds): microsecond
// solves through multi-minute budget-bound pipeline stages.
var TimeBuckets = []float64{.001, .005, .01, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// IIBuckets buckets achieved initiation intervals.
var IIBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// WriteProm writes every family in Prometheus text exposition format
// (the /metricsz body), families and label sets in sorted order so the
// output is stable for golden tests.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeProm(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		vals []string
		m    metric
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		var vals []string
		if k != "" || len(f.labels) > 0 {
			vals = strings.Split(k, "\x00")
		}
		rows = append(rows, row{vals: vals, m: f.children[k]})
	}
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
		return err
	}
	for _, r := range rows {
		if err := f.writeChild(w, r.vals, r.m); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeChild(w io.Writer, vals []string, m metric) error {
	s := m.sample()
	if h, ok := m.(*Histogram); ok {
		for i, b := range h.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
				labelString(f.labels, vals, "le", formatFloat(b)), formatFloat(s[i])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %s\n", f.name,
			labelString(f.labels, vals, "le", "+Inf"), formatFloat(s[len(h.bounds)])); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelString(f.labels, vals, "", ""), formatFloat(s[len(s)-2])); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %s\n", f.name,
			labelString(f.labels, vals, "", ""), formatFloat(s[len(s)-1]))
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, vals, "", ""), formatFloat(s[0]))
	return err
}

// labelString renders {k="v",...}; extraKey (the histogram "le") is
// appended when non-empty. Returns "" when there are no labels at all.
func labelString(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, escapeLabel(vals[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	// %q already escapes quotes and backslashes; nothing further needed.
	return s
}

// Snapshot flattens the registry into metric-name → value: counters
// and gauges by name (labelled children as name{k="v",...}),
// histograms as name_sum and name_count. The bench harness diffs two
// snapshots to render the per-table solver-effort appendix.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		for k, m := range f.children {
			var vals []string
			if k != "" || len(f.labels) > 0 {
				vals = strings.Split(k, "\x00")
			}
			suffix := labelString(f.labels, vals, "", "")
			if h, ok := m.(*Histogram); ok {
				out[f.name+"_sum"+suffix] = h.Sum()
				out[f.name+"_count"+suffix] = float64(h.Count())
				continue
			}
			out[f.name+suffix] = m.sample()[0]
		}
		f.mu.Unlock()
	}
	return out
}

// ParseSamples reads Prometheus text exposition (a WriteProm body, or
// a whole /metricsz scrape) back into the flat form Snapshot returns:
// one key per sample line, name plus label set, with histogram bucket
// lines skipped. It is how a scraper reads a peer's counters.
func ParseSamples(rd io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	hist := make(map[string]bool)
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, _ := strings.Cut(rest, " "); typ == "histogram" {
				hist[name] = true
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: malformed sample line %q", line)
		}
		key := line[:i]
		name, _, _ := strings.Cut(key, "{")
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && hist[base] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: sample line %q: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}
