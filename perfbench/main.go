// Command perfbench is the repository's benchmark: it measures the
// Panorama compiler (Pan-SPR*, Pan-UltraFast*, unguided SPR*) and the
// panoramad service end to end, and, in a separate traced run, layer
// by layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads and their generator parameters live in workloads.json
// (embedded at build time); BENCHMARK.json at the repository root names
// the metrics. With --trace 0 the run measures the end-to-end metrics
// with no tracing; with --trace 1 it replays each workload layer by
// layer and reports the per-layer metrics. Either way it checks every
// output (the legality oracle and the simulator for mappings, summary
// equality and exactly-once execution for the service), prints a
// human-readable report, and ends its standard output with one JSON
// line {"correct", "attempted", "failed", "metrics"}. Any failed check
// makes it exit with status 1.
//
// Spans are recorded only here, around calls into each layer's public
// functions; the program under test carries no benchmark tracing. The
// span log of a traced run is written to $PERFBENCH_OUT (default
// .bench_build) as trace-<workload>-<seed>.json.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// Workload is one workload's generator parameters, as recorded in
// workloads.json.
type Workload struct {
	Name string `json:"-"`
	// Kind is "compile" (closed loop, one caller, repeated passes over
	// the kernels) or "serve" (open loop over loopback HTTP).
	Kind    string   `json:"kind"`
	Mapper  string   `json:"mapper"`
	Kernels []string `json:"kernels"`
	Scale   float64  `json:"scale"`
	Arch    string   `json:"arch"`
	// MapperSeed seeds k-means and SPR*; it is fixed so every run maps
	// the same deterministic work and the mapping hashes stay
	// comparable across runs (--seed shuffles the pass order instead).
	MapperSeed int64 `json:"mapperSeed"`
	// LatencyLimitMS is the per-operation limit behind slo_ratio.
	LatencyLimitMS float64 `json:"latencyLimitMS"`
	// RatePerS and WarmRatio shape the serve workload's request stream.
	RatePerS  float64 `json:"ratePerS,omitempty"`
	WarmRatio float64 `json:"warmRatio,omitempty"`
}

type workloadFile struct {
	Workloads map[string]*Workload `json:"workloads"`
}

func loadWorkloads() (map[string]*Workload, error) {
	var f workloadFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range f.Workloads {
		w.Name = name
		if w.Kind != "compile" && w.Kind != "serve" {
			return nil, fmt.Errorf("workloads.json: %s: unknown kind %q", name, w.Kind)
		}
	}
	return f.Workloads, nil
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the machine-readable outcome of one run, printed as the
// last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runConfig is what one workload run needs besides the workload.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Workers caps the pipeline worker pool and the client connections.
	Workers int
	// OutDir receives the span log of a traced run and the service's
	// scratch state (removed when the run ends).
	OutDir string
	// SetupReps caps how many times set-up is repeated (see
	// setupMore); setup_s is the median.
	SetupReps int
	// MinRequests is the serve workload's least stream length; 1000
	// keeps its p99 nameable (ten samples beyond it).
	MinRequests int
}

func main() {
	workload := flag.String("workload", "", "workload name from workloads.json, or \"all\"")
	seed := flag.Int64("seed", 1, "workload seed: kernel order of each compile pass, the serve request stream")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced layer-by-layer run reporting the per-layer metrics")
	flag.Parse()

	wls, err := loadWorkloads()
	if err != nil {
		fatal(err)
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if *workload == "all" {
		os.Exit(runAll(wls, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace)))
	}
	w, ok := wls[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, sortedKeys(wls)))
	}
	cfg := runConfig{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Workers: runtime.NumCPU(), OutDir: out, SetupReps: 15, MinRequests: 1000,
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	var res *Result
	if w.Kind == "compile" {
		res, err = runCompile(w, cfg, os.Stdout)
	} else {
		res, err = runServe(w, cfg, os.Stdout)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, one after the
// other (peak RSS and the obs counters are per process), and prints an
// aggregate last line whose metrics are keyed "<workload>/<metric>".
func runAll(wls map[string]*Workload, args ...string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	agg := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, name := range sortedKeys(wls) {
		cmd := exec.Command(self, append([]string{"--workload", name}, args...)...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		os.Stdout.Write(outBytes)
		var res Result
		if jerr := json.Unmarshal(lastLine(outBytes), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no result (%v, %v)\n", name, err, jerr)
			agg.Correct = false
			agg.Failed++
			continue
		}
		agg.Correct = agg.Correct && res.Correct
		agg.Attempted += res.Attempted
		agg.Failed += res.Failed
		for k, m := range res.Metrics {
			agg.Metrics[name+"/"+k] = m
		}
	}
	if agg.Attempted == 0 {
		agg.Attempted = 1
	}
	line, err := json.Marshal(agg)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !agg.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\r\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runDir makes a fresh scratch directory for one run's service state.
func runDir(cfg runConfig, tag string) (string, error) {
	dir := filepath.Join(cfg.OutDir, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), tag, time.Now().UnixNano()))
	return dir, os.MkdirAll(dir, 0o755)
}

// setupMore reports whether set-up should run again: at least three
// times (fewer only when maxReps says so), then while the repetitions
// so far took under two seconds, up to maxReps, so a set-up of a few
// milliseconds still reports a steady median.
func setupMore(done []float64, maxReps int) bool {
	n := len(done)
	return n < min(3, maxReps) || (n < maxReps && sum(done) < 2)
}
