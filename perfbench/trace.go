package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one mapping or one
// request share Op; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Op     int64   `json:"op"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMS"`
	End    float64 `json:"endMS"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 {
	return float64(time.Since(t.t0)) / float64(time.Millisecond)
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(op int64, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name, Start: start, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(op int64, parent int, name string, f func()) {
	i := t.begin(op, parent, name)
	f()
	t.end(i)
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Calls  int     `json:"calls"`
	WallMS float64 `json:"wallMS"`
	SelfMS float64 `json:"selfMS"`
}

// layers derives each span's self time — its duration minus the part
// of it that its children cover — and sums wall and self time by name.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]float64
		for _, c := range children[i] {
			if cs := t.spans[c]; cs.End >= 0 {
				iv = append(iv, [2]float64{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.WallMS += s.End - s.Start
		lt.SelfMS += s.End - s.Start - covered(iv)
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if curE < 0 || x[0] > curE {
			if curE >= 0 {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE >= 0 {
		total += curE - curS
	}
	return total
}

// write dumps the span log and the per-name aggregates as JSON.
func (t *tracer) write(path string, extra map[string]any) error {
	agg := t.layers()
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans, "layers": agg}
	for k, v := range extra {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
