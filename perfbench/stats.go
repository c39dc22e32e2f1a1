package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"panorama/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile picks the highest of p99, p95, p90 and p50 that has at
// least ten samples beyond it, so a reported percentile is never an
// extrapolation; ok is false below 20 samples.
func tailQuantile(n int) (q float64, label string, ok bool) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.50, "p50"}} {
		if float64(n)*(1-c.q) >= 10 {
			return c.q, c.label, true
		}
	}
	return 0, "", false
}

// tail is the latency at the highest nameable percentile (tailQuantile),
// or the maximum below 20 samples.
func tail(xs []float64) float64 {
	q, _, ok := tailQuantile(len(xs))
	if !ok {
		q = 1
	}
	return quantile(xs, q)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// counters reads families of the process metrics registry, summing
// every labelled child of each family.
func counters(families ...string) map[string]float64 {
	snap := obs.Default.Snapshot()
	out := make(map[string]float64, len(families))
	for k, v := range snap {
		name := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name = k[:i]
		}
		for _, f := range families {
			if name == f {
				out[f] += v
			}
		}
	}
	return out
}

// counterDelta is after − before per family.
func counterDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
