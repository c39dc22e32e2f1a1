package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/core"
	"panorama/internal/dfg"
	"panorama/internal/failure"
	"panorama/internal/kernels"
	"panorama/internal/mrrg"
	"panorama/internal/sim"
	"panorama/internal/spectral"
	"panorama/internal/spr"
	"panorama/internal/ultrafast"
	"panorama/internal/verify"
)

// simIters is how many loop iterations the cycle-accurate simulator
// replays per routed mapping (the differential harness uses the same).
const simIters = 5

// warmupScale sizes the small mappings set-up runs before timing, so
// lazy initialisation and heap growth are not charged to the first
// measured kernels.
const warmupScale = 0.1

// identicalPair are the two kernels that differ only in Add vs Mul and
// map byte-identically on the homogeneous fabric; while their mappings
// coincide they count once in the geomeans.
var identicalPair = [2]string{"idctrows", "jpegfdct"}

// Effort counter families read around each mapping.
var effortFamilies = []string{
	"panorama_ilp_nodes_total", "panorama_ilp_solves_total",
	"panorama_clustermap_attempts_total", "panorama_clustermap_greedy_rows_total",
	"panorama_spr_attempts_total", "panorama_spr_pathfinder_iterations_total",
	"panorama_spr_ripups_total", "panorama_spr_sa_moves_total",
	"panorama_spr_relaxations_total", "panorama_ultrafast_attempts_total",
}

type compileInput struct {
	name string
	g    *dfg.Graph
}

func archByName(name string) (*arch.CGRA, error) {
	switch name {
	case "4x4":
		return arch.Preset4x4(), nil
	case "8x8":
		return arch.Preset8x8(), nil
	case "9x9":
		return arch.Preset9x9(), nil
	case "16x16":
		return arch.Preset16x16(), nil
	}
	return nil, fmt.Errorf("unknown arch %q", name)
}

func buildInputs(w *Workload, scale float64) (*arch.CGRA, []compileInput, error) {
	a, err := archByName(w.Arch)
	if err != nil {
		return nil, nil, err
	}
	var ins []compileInput
	for _, name := range w.Kernels {
		spec, err := kernels.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		g := spec.Build(scale)
		if err := g.Freeze(); err != nil {
			return nil, nil, err
		}
		ins = append(ins, compileInput{name: name, g: g})
	}
	return a, ins, nil
}

func guided(w *Workload) bool { return strings.HasPrefix(w.Mapper, "pan-") }

func lowerName(w *Workload) string { return strings.TrimPrefix(w.Mapper, "pan-") }

// mapKernel runs the workload's pipeline on one kernel, as a user of
// core would: the guided pipeline for "pan-*", the baseline otherwise.
func mapKernel(w *Workload, a *arch.CGRA, g *dfg.Graph, workers int) (*core.Result, error) {
	lower, err := core.NewLowerByName(lowerName(w), w.MapperSeed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if guided(w) {
		return core.MapPanoramaCtx(ctx, g, a, lower, core.Config{
			Seed: w.MapperSeed, RelaxOnFailure: true, Workers: workers})
	}
	return core.MapBaselineCtx(ctx, g, a, lower)
}

// allowedOf rebuilds the cluster restriction a result's mapping was
// produced under. relaxMemOps is internal to core, so the relaxed
// rungs use its documented rule: memory operations are unrestricted.
func allowedOf(g *dfg.Graph, a *arch.CGRA, res *core.Result) [][]int {
	if res.FellBack || res.Partition == nil || res.ClusterMap == nil {
		return nil
	}
	allowed := core.AllowedClusters(g, a, res.Partition, res.ClusterMap)
	if res.Relaxed {
		allowed = relaxMem(g, allowed)
	}
	return allowed
}

func relaxMem(g *dfg.Graph, allowed [][]int) [][]int {
	out := make([][]int, len(allowed))
	copy(out, allowed)
	for v, nd := range g.Nodes {
		if nd.Op.IsMem() {
			out[v] = nil
		}
	}
	return out
}

// checkMapping is the output check: the mapper-independent legality
// oracle under the restriction the mapping was produced with, and for
// routed mappings the cycle-accurate simulator against the reference
// interpreter.
func checkMapping(g *dfg.Graph, a *arch.CGRA, m *verify.Mapping, allowed [][]int) error {
	if m == nil {
		return errors.New("no mapping")
	}
	if err := verify.Check(g, a, m, allowed); err != nil {
		return fmt.Errorf("verify.Check: %w", err)
	}
	if m.Model == verify.ModelRouted {
		if err := sim.Verify(g, a, routed(m), simIters); err != nil {
			return fmt.Errorf("sim.Verify: %w", err)
		}
	}
	return nil
}

func routed(m *verify.Mapping) *spr.Mapping {
	return &spr.Mapping{II: m.II, PlacePE: m.PlacePE, PlaceT: m.PlaceT, Routes: m.Routes}
}

// mappingHash hashes II, placement, schedule and every route, so two
// runs can prove byte-identical mappings.
func mappingHash(m *verify.Mapping) string {
	if m == nil {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wr(int64(m.II))
	wr(int64(len(m.PlacePE)))
	for i := range m.PlacePE {
		wr(int64(m.PlacePE[i]))
		wr(int64(m.PlaceT[i]))
	}
	wr(int64(len(m.Routes)))
	for _, r := range m.Routes {
		wr(int64(len(r)))
		for _, n := range r {
			wr(int64(n))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// kernelRow is one kernel's line of the report.
type kernelRow struct {
	Kernel   string             `json:"kernel"`
	Nodes    int                `json:"nodes"`
	WallsMS  []float64          `json:"wallsMS"`
	MII      int                `json:"mii"`
	II       int                `json:"ii"`
	QoM      float64            `json:"qom"`
	K        int                `json:"k"`
	Guidance string             `json:"guidance"`
	Hash     string             `json:"hash"`
	Effort   map[string]float64 `json:"effort"`
	Failures []string           `json:"failures,omitempty"`
}

func (r *kernelRow) medianMS() float64 { return median(r.WallsMS) }

// record folds one mapping outcome into the row, returning the check
// failure (nil when the mapping is correct and matches earlier passes).
func (r *kernelRow) record(g *dfg.Graph, a *arch.CGRA, res *core.Result, err error, effort map[string]float64) error {
	if err == nil && (res == nil || !res.Lower.Success) {
		err = errors.New("mapper found no mapping")
	}
	if err == nil {
		err = checkMapping(g, a, res.Lower.Mapping, allowedOf(g, a, res))
	}
	if err == nil {
		h := mappingHash(res.Lower.Mapping)
		if r.Hash == "" {
			r.Hash, r.II, r.MII, r.QoM = h, res.Lower.II, res.Lower.MII, res.Lower.QoM
			r.Guidance, r.Effort = res.GuidanceLabel(), effort
			if res.Partition == nil && res.ClusterMap == nil && !res.FellBack {
				r.Guidance = "baseline"
			}
			if res.Partition != nil {
				r.K = res.Partition.K
			}
		} else if h != r.Hash {
			err = fmt.Errorf("nondeterministic: mapping hash %.12s, earlier %.12s", h, r.Hash)
		}
	}
	if err != nil {
		r.Failures = append(r.Failures, err.Error())
	}
	return err
}

// distinctRows merges the identical pair into one row (mean wall, the
// shared QoM) while their mappings coincide; pairMerged reports it.
func distinctRows(rows []*kernelRow) (walls, qoms []float64, pairMerged bool) {
	byName := map[string]*kernelRow{}
	for _, r := range rows {
		byName[r.Kernel] = r
	}
	p0, p1 := byName[identicalPair[0]], byName[identicalPair[1]]
	pairMerged = p0 != nil && p1 != nil && p0.Hash != "" && p0.Hash == p1.Hash && p0.II == p1.II
	for _, r := range rows {
		if r.Hash == "" {
			continue
		}
		switch {
		case pairMerged && r == p1:
			continue
		case pairMerged && r == p0:
			walls = append(walls, (p0.medianMS()+p1.medianMS())/2)
		default:
			walls = append(walls, r.medianMS())
		}
		qoms = append(qoms, r.QoM)
	}
	return walls, qoms, pairMerged
}

// setupCompile builds the inputs and maps every kernel once at a small
// scale; runCompile repeats it (see setupMore) and reports the median.
func setupCompile(w *Workload, workers int) (*arch.CGRA, []compileInput, error) {
	a, ins, err := buildInputs(w, w.Scale)
	if err != nil {
		return nil, nil, err
	}
	wa, warm, err := buildInputs(w, warmupScale)
	if err != nil {
		return nil, nil, err
	}
	for _, in := range warm {
		res, err := mapKernel(w, wa, in.g, workers)
		if err == nil && !res.Lower.Success {
			err = errors.New("no mapping")
		}
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up mapping of %s: %w", in.name, err)
		}
	}
	return a, ins, nil
}

func runCompile(w *Workload, cfg runConfig, out io.Writer) (*Result, error) {
	var setups []float64
	var a *arch.CGRA
	var ins []compileInput
	for setupMore(setups, cfg.SetupReps) {
		t0 := time.Now()
		var err error
		a, ins, err = setupCompile(w, cfg.Workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.Trace {
		return traceCompile(w, cfg, a, ins, median(setups), out)
	}

	rows := make([]*kernelRow, len(ins))
	for i, in := range ins {
		rows[i] = &kernelRow{Kernel: in.name, Nodes: in.g.NumNodes()}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var passWalls []float64
	var alloc uint64
	attempted, failed, withinLimit := 0, 0, 0
	start := time.Now()
	for len(passWalls) == 0 || fits(start, passWalls, cfg.Seconds) {
		passMS := 0.0
		for _, i := range rng.Perm(len(ins)) {
			in := ins[i]
			c0 := counters(effortFamilies...)
			a0 := totalAlloc()
			t0 := time.Now()
			res, err := mapKernel(w, a, in.g, cfg.Workers)
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			alloc += totalAlloc() - a0
			effort := counterDelta(c0, counters(effortFamilies...))
			attempted++
			passMS += ms
			rows[i].WallsMS = append(rows[i].WallsMS, ms)
			if rows[i].record(in.g, a, res, err, effort) != nil {
				failed++
			} else if ms <= w.LatencyLimitMS {
				withinLimit++
			}
		}
		passWalls = append(passWalls, passMS/1000)
	}

	walls, qoms, merged := distinctRows(rows)
	res := &Result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]Metric{
			"setup_s":     {median(setups), "s"},
			"compile_s":   {median(passWalls), "s"},
			"geomean_ms":  {geomean(walls), "ms"},
			"qom_geomean": {geomean(qoms), "ratio"},
			"alloc_mb":    {float64(alloc) / float64(len(passWalls)) / (1 << 20), "MB"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
			"slo_ratio":   {float64(withinLimit) / float64(attempted), "ratio"},
		},
	}
	reportCompile(out, w, cfg, rows, res, passWalls, len(walls), len(setups), merged)
	return res, nil
}

func reportCompile(out io.Writer, w *Workload, cfg runConfig, rows []*kernelRow, res *Result, passWalls []float64, distinct, setupCount int, merged bool) {
	passes := len(passWalls)
	fmt.Fprintf(out, "# %s: %s on %s, scale %g, mapper seed %d, workload seed %d, %d workers, %d passes\n",
		w.Name, w.Mapper, w.Arch, w.Scale, w.MapperSeed, cfg.Seed, cfg.Workers, passes)
	fmt.Fprintf(out, "%-14s %5s %9s %3s %3s %3s %6s %-8s %-12s %s\n",
		"kernel", "nodes", "wall_ms", "n", "mii", "ii", "qom", "guide", "hash", "effort")
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s %5d %9.1f %3d %3d %3d %6.3f %-8s %-12.12s %s\n",
			r.Kernel, r.Nodes, r.medianMS(), len(r.WallsMS), r.MII, r.II, r.QoM, r.Guidance, r.Hash, effortString(r.Effort))
		for _, f := range r.Failures {
			fmt.Fprintf(out, "  FAILED %s: %s\n", r.Kernel, f)
		}
	}
	pair := "not both present"
	if merged {
		pair = "identical, counted once"
	} else if hasBoth(rows) {
		pair = "DIVERGED, counted separately"
	}
	m := res.Metrics
	n := res.Attempted
	fmt.Fprintf(out, "%s/%s pair: %s\n", identicalPair[0], identicalPair[1], pair)
	fmt.Fprintf(out, "compile_s          %10.4f s     (median of %d passes: %.3f)\n", m["compile_s"].Value, passes, passWalls)
	fmt.Fprintf(out, "compile_geomean_ms %10.2f ms    (%d distinct kernels, %d mappings)\n", m["geomean_ms"].Value, distinct, n)
	fmt.Fprintf(out, "qom_geomean        %10.4f ratio (%d distinct kernels)\n", m["qom_geomean"].Value, distinct)
	fmt.Fprintf(out, "alloc_mb           %10.2f MB/pass (%d passes)\n", m["alloc_mb"].Value, passes)
	fmt.Fprintf(out, "peak_rss_mb        %10.1f MB\n", m["peak_rss_mb"].Value)
	fmt.Fprintf(out, "setup_s            %10.4f s     (median of %d set-ups)\n", m["setup_s"].Value, setupCount)
	fmt.Fprintf(out, "slo_ratio          %10.4f ratio (limit %g ms, n=%d)\n", m["slo_ratio"].Value, w.LatencyLimitMS, n)
	fmt.Fprintf(out, "error_ratio        %10.4f ratio (%d of %d failed)\n", float64(res.Failed)/float64(n), res.Failed, n)
}

func hasBoth(rows []*kernelRow) bool {
	seen := 0
	for _, r := range rows {
		if r.Kernel == identicalPair[0] || r.Kernel == identicalPair[1] {
			seen++
		}
	}
	return seen == 2
}

func effortString(e map[string]float64) string {
	short := map[string]string{
		"panorama_ilp_nodes_total": "ilp_nodes", "panorama_ilp_solves_total": "ilp_solves",
		"panorama_clustermap_attempts_total": "cm_attempts", "panorama_clustermap_greedy_rows_total": "greedy_rows",
		"panorama_spr_attempts_total": "spr_attempts", "panorama_spr_pathfinder_iterations_total": "pf_iters",
		"panorama_spr_ripups_total": "ripups", "panorama_spr_sa_moves_total": "sa_moves",
		"panorama_spr_relaxations_total": "relax", "panorama_ultrafast_attempts_total": "uf_attempts",
	}
	var parts []string
	for _, f := range effortFamilies {
		if v := e[f]; v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.0f", short[f], v))
		}
	}
	return strings.Join(parts, " ")
}

// replayOut is what one layer-by-layer replay of a kernel produced.
type replayOut struct {
	k        int
	mapping  *verify.Mapping
	allowed  [][]int
	sprRes   *spr.Result
	cands    int
	limited  int
	greedy   int
	ilpNodes float64
	ilpSolve float64
	ufTries  float64
	kmeans   int
	eigenN   int
}

// replay re-runs the pipeline of MapPanoramaCtx / MapBaselineCtx on one
// kernel one layer at a time, serially, each call inside its own span.
// ref is the untraced result for the same kernel; its guidance flags
// pick the lower-mapper rungs the pipeline took, since memBound is
// internal to core.
func replay(tr *tracer, op int64, parent int, w *Workload, a *arch.CGRA, g *dfg.Graph, ref *core.Result) (*replayOut, error) {
	ctx := context.Background()
	out := &replayOut{}
	var allowed [][]int
	var rungs [][][]int
	if guided(w) {
		var em *spectral.Embedder
		var err error
		tr.do(op, parent, "linalg.eigen", func() { em, err = spectral.NewEmbedder(g) })
		if err != nil {
			return nil, err
		}
		out.eigenN = g.NumNodes()
		r, c := a.ClusterRows, a.ClusterCols
		kMin, kMax := max(r, 1), min(core.DefaultMaxClusters(g, a), g.NumNodes())
		var usable []*spectral.Partition
		for k := kMin; k <= kMax; k++ {
			var p *spectral.Partition
			tr.do(op, parent, "spectral.kmeans", func() { p, err = em.Cluster(k, w.MapperSeed+int64(k)) })
			if err != nil {
				return nil, err
			}
			out.kmeans++
			if p.K >= r {
				usable = append(usable, p)
			}
		}
		var top []*spectral.Partition
		tr.do(op, parent, "spectral.top_balanced", func() { top = spectral.TopBalanced(usable, 3) })
		out.cands = len(top)

		mii := a.MII(g)
		cmOpts := clustermap.Options{
			NodeCapacity: a.NumPEs() / a.NumClusters() * (mii + 1),
			MemCapacity:  len(a.MemPEs()) / a.NumClusters() * (mii + 1),
		}
		var best *clustermap.Result
		var bestPart *spectral.Partition
		for _, p := range top {
			var cdg *spectral.CDG
			tr.do(op, parent, "spectral.cdg", func() { cdg = spectral.BuildCDG(g, p) })
			c0 := counters("panorama_ilp_nodes_total", "panorama_ilp_solves_total")
			var cm *clustermap.Result
			tr.do(op, parent, "clustermap.map", func() {
				cm, err = clustermap.MapWithEscalationCtx(ctx, cdg, r, c, cmOpts)
				if err != nil && !failure.IsBudget(err) && !failure.IsCancelled(err) {
					relaxed := cmOpts
					relaxed.NodeCapacity, relaxed.MemCapacity = 0, 0
					cm, err = clustermap.MapWithEscalationCtx(ctx, cdg, r, c, relaxed)
				}
			})
			d := counterDelta(c0, counters("panorama_ilp_nodes_total", "panorama_ilp_solves_total"))
			out.ilpNodes += d["panorama_ilp_nodes_total"]
			out.ilpSolve += d["panorama_ilp_solves_total"]
			if err != nil {
				continue
			}
			if cm.Limited {
				out.limited++
			}
			out.greedy += cm.GreedyRows
			if best == nil || lessCM(cm, best) {
				best, bestPart = cm, p
			}
		}
		if best == nil {
			return nil, errors.New("replay: every candidate infeasible")
		}
		out.k = bestPart.K
		tr.do(op, parent, "core.allowed", func() { allowed = core.AllowedClusters(g, a, bestPart, best) })
		if ref.Relaxed && lowerNote(ref) == "guided" {
			allowed = relaxMem(g, allowed) // relaxed up front on bank pressure
		}
		rungs = [][][]int{allowed, relaxMem(g, allowed), nil}
	} else {
		rungs = [][][]int{nil}
	}

	// Like core's ladder, a rung that errors or finds no mapping falls
	// through to the next one.
	var lastErr error
	for _, rung := range rungs {
		out.allowed = rung
		var err error
		if lowerName(w) == "spr" {
			tr.do(op, parent, "spr.map", func() {
				out.sprRes, err = spr.MapCtx(ctx, g, a, spr.Options{Seed: w.MapperSeed, AllowedClusters: rung})
			})
			if err == nil && out.sprRes.Success {
				out.mapping = out.sprRes.Mapping.Verifiable()
			}
		} else {
			c0 := counters("panorama_ultrafast_attempts_total")
			var res *ultrafast.Result
			tr.do(op, parent, "ultrafast.map", func() {
				res, err = ultrafast.MapCtx(ctx, g, a, ultrafast.Options{AllowedClusters: rung})
			})
			out.ufTries += counterDelta(c0, counters("panorama_ultrafast_attempts_total"))["panorama_ultrafast_attempts_total"]
			if err == nil && res.Success {
				out.mapping = res.Mapping.Verifiable(0)
			}
		}
		if err != nil {
			lastErr = err
			continue
		}
		if out.mapping != nil {
			return out, nil
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("replay: no rung produced a mapping: %w", lastErr)
	}
	return nil, errors.New("replay: no rung produced a mapping")
}

// lowerNote is the rung the pipeline's lower stage settled on.
func lowerNote(res *core.Result) string {
	for _, st := range res.Provenance.Stages {
		if st.Stage == "lower" {
			return st.Note
		}
	}
	return ""
}

// lessCM mirrors core's candidate order: composite score, then ζ.
func lessCM(a, b *clustermap.Result) bool {
	if a.Score() != b.Score() {
		return a.Score() < b.Score()
	}
	return a.Zeta1+a.Zeta2 < b.Zeta1+b.Zeta2
}

// traceCompile is the traced run: each pass maps every kernel once
// untraced and serially (Workers=1, the reference the replay is
// compared with), then replays it layer by layer. Per-layer metrics
// are per-pass totals averaged over the passes.
func traceCompile(w *Workload, cfg runConfig, a *arch.CGRA, ins []compileInput, setup float64, out io.Writer) (*Result, error) {
	tr := newTracer()
	rng := rand.New(rand.NewSource(cfg.Seed))
	acc := map[string]float64{}
	var refMS, pipeMS, layeredMS float64
	attempted, failed, mismatches, passes := 0, 0, 0, 0
	var op int64
	var mismatchLog []string
	start := time.Now()
	var passWalls []float64
	for passes == 0 || fits(start, passWalls, cfg.Seconds) {
		passStart := time.Now()
		passes++
		for _, i := range rng.Perm(len(ins)) {
			in := ins[i]
			op++
			attempted++
			t0 := time.Now()
			ref, err := mapKernel(w, a, in.g, 1)
			refMS += float64(time.Since(t0)) / float64(time.Millisecond)
			var row kernelRow
			if row.record(in.g, a, ref, err, nil) != nil {
				failed++
				fmt.Fprintf(out, "FAILED %s (reference): %s\n", in.name, row.Failures[0])
				continue
			}
			if ref.Relaxed || ref.FellBack {
				acc["core.fallbacks"]++
			}

			root := tr.begin(op, -1, "kernel:"+in.name)
			pipe := tr.begin(op, root, "core.pipeline")
			rep, err := replay(tr, op, pipe, w, a, in.g, ref)
			tr.end(pipe)
			if err != nil {
				tr.end(root)
				failed++
				fmt.Fprintf(out, "FAILED %s (replay): %v\n", in.name, err)
				continue
			}
			var cerr error
			tr.do(op, root, "verify.check", func() { cerr = verify.Check(in.g, a, rep.mapping, rep.allowed) })
			if cerr != nil {
				acc["verify.failures"]++
			}
			if rep.mapping.Model == verify.ModelRouted {
				tr.do(op, root, "sim.verify", func() {
					if err := sim.Verify(in.g, a, routed(rep.mapping), simIters); err != nil && cerr == nil {
						cerr = err
					}
				})
			}
			if cerr != nil {
				failed++
				fmt.Fprintf(out, "FAILED %s (replay check): %v\n", in.name, cerr)
			}
			if rep.sprRes != nil {
				seen := map[int]bool{}
				for _, at := range rep.sprRes.Attempts {
					acc["spr.ii_attempts"]++
					acc["spr.pf_iters"] += float64(at.PFIters)
					acc["spr.ripups"] += float64(at.RipUps)
					acc["spr.sa_moves"] += float64(at.SAMoves)
					acc["spr.relaxations"] += float64(at.Relax)
					if seen[at.II] {
						continue
					}
					seen[at.II] = true
					var mg *mrrg.Graph
					tr.do(op, root, "mrrg.build", func() { mg, err = mrrg.New(a, at.II) })
					if err == nil {
						acc["mrrg.edges"] += float64(mg.NumEdges())
					}
				}
				if rep.sprRes.Success {
					acc["spr.successes"]++
				}
			}
			tr.end(root)

			refK := 0
			if ref.Partition != nil {
				refK = ref.Partition.K
			}
			if rep.k != refK || rep.mapping.II != ref.Lower.II || mappingHash(rep.mapping) != mappingHash(ref.Lower.Mapping) {
				mismatches++
				mismatchLog = append(mismatchLog, fmt.Sprintf("%s: k %d/%d, II %d/%d, hash %.12s/%.12s",
					in.name, rep.k, refK, rep.mapping.II, ref.Lower.II, mappingHash(rep.mapping), mappingHash(ref.Lower.Mapping)))
			}
			acc["linalg.eigen_n"] += float64(rep.eigenN)
			acc["spectral.kmeans_calls"] += float64(rep.kmeans)
			acc["clustermap.candidates"] += float64(rep.cands)
			acc["clustermap.limited"] += float64(rep.limited)
			acc["clustermap.greedy_rows"] += float64(rep.greedy)
			acc["ilp.nodes"] += rep.ilpNodes
			acc["ilp.solves"] += rep.ilpSolve
			acc["ultrafast.ii_attempts"] += rep.ufTries
		}
		passWalls = append(passWalls, time.Since(passStart).Seconds())
	}

	layers := tr.layers()
	self := func(name string) float64 {
		if lt := layers[name]; lt != nil {
			return lt.SelfMS
		}
		return 0
	}
	if lt := layers["core.pipeline"]; lt != nil {
		pipeMS = lt.WallMS
		layeredMS = lt.WallMS - lt.SelfMS
	}
	p := float64(passes)
	m := map[string]float64{
		"linalg.eigen_ms":        self("linalg.eigen") / p,
		"spectral.kmeans_ms":     self("spectral.kmeans") / p,
		"spectral.cdg_ms":        self("spectral.cdg") / p,
		"clustermap.map_ms":      self("clustermap.map") / p,
		"mrrg.build_ms":          self("mrrg.build") / p,
		"spr.map_ms":             self("spr.map") / p,
		"ultrafast.map_ms":       self("ultrafast.map") / p,
		"verify.check_ms":        self("verify.check") / p,
		"sim.verify_ms":          self("sim.verify") / p,
		"core.pipeline_ms":       refMS / p,
		"core.unaccounted_ms":    (refMS - layeredMS) / p,
		"replay.mismatches":      float64(mismatches),
		"trace.overhead_ratio":   pipeMS / refMS,
		"ilp.nodes_per_solve":    ratio(acc["ilp.nodes"], acc["ilp.solves"]),
		"spr.success_ratio":      ratio(acc["spr.successes"], acc["spr.ii_attempts"]),
		"verify.failures":        acc["verify.failures"],
		"clustermap.limited":     acc["clustermap.limited"] / p,
		"core.fallbacks":         acc["core.fallbacks"] / p,
		"linalg.eigen_n":         acc["linalg.eigen_n"] / p,
		"spectral.kmeans_calls":  acc["spectral.kmeans_calls"] / p,
		"clustermap.candidates":  acc["clustermap.candidates"] / p,
		"clustermap.greedy_rows": acc["clustermap.greedy_rows"] / p,
		"ilp.nodes":              acc["ilp.nodes"] / p,
		"ilp.solves":             acc["ilp.solves"] / p,
		"mrrg.edges":             acc["mrrg.edges"] / p,
		"spr.ii_attempts":        acc["spr.ii_attempts"] / p,
		"spr.relaxations":        acc["spr.relaxations"] / p,
		"spr.pf_iters":           acc["spr.pf_iters"] / p,
		"spr.ripups":             acc["spr.ripups"] / p,
		"spr.sa_moves":           acc["spr.sa_moves"] / p,
		"ultrafast.ii_attempts":  acc["ultrafast.ii_attempts"] / p,
	}
	res := &Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: layerMetrics(m)}

	fmt.Fprintf(out, "# %s traced: %d passes, serial reference vs layer-by-layer replay, set-up %.3fs\n", w.Name, passes, setup)
	fmt.Fprintf(out, "%-22s %10s %7s %8s\n", "layer (self time)", "ms/pass", "calls", "share")
	for _, n := range sortedKeys(layers) {
		if strings.HasPrefix(n, "kernel:") {
			continue
		}
		fmt.Fprintf(out, "%-22s %10.2f %7d %7.1f%%\n", n, layers[n].SelfMS/p, layers[n].Calls, 100*layers[n].SelfMS/refMS)
	}
	fmt.Fprintf(out, "reference pipeline %.1f ms/pass, layered %.1f ms/pass, unaccounted %.1f ms/pass, replay/reference %.3f\n",
		refMS/p, layeredMS/p, (refMS-layeredMS)/p, pipeMS/refMS)
	fmt.Fprintf(out, "replay mismatches (k, II, mapping hash vs reference): %d\n", mismatches)
	for _, l := range mismatchLog {
		fmt.Fprintf(out, "  MISMATCH %s\n", l)
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-%d.json", w.Name, cfg.Seed))
	if err := tr.write(path, map[string]any{"workload": w.Name, "seed": cfg.Seed, "passes": passes, "metrics": m}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "span log: %s\n", path)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fits reports whether one more pass, as long as the slowest so far,
// still ends within the run's measuring time: a run measures as many
// whole passes as fit, and at least one.
func fits(start time.Time, passWalls []float64, seconds float64) bool {
	longest := 0.0
	for _, p := range passWalls {
		longest = max(longest, p)
	}
	return time.Since(start).Seconds()+longest <= seconds
}
