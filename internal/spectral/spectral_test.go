package spectral

import (
	"context"
	"math"
	"testing"

	"panorama/internal/dfg"
	"panorama/internal/kernels"
	"panorama/internal/linalg"
)

// twoCommunities builds a graph with two dense communities of size sz
// joined by a single bridge edge.
func twoCommunities(sz int) *dfg.Graph {
	g := dfg.New("two")
	for i := 0; i < 2*sz; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	// Community A: 0..sz-1 as a dense DAG; community B likewise.
	for base := 0; base <= sz; base += sz {
		for i := 0; i < sz; i++ {
			for j := i + 1; j < sz && j <= i+3; j++ {
				g.AddEdge(base+i, base+j)
			}
		}
	}
	g.AddEdge(sz-1, sz) // bridge
	g.MustFreeze()
	return g
}

func TestLaplacianRowSumsZero(t *testing.T) {
	g := twoCommunities(6)
	lap := Laplacian(g)
	for i := 0; i < lap.Rows; i++ {
		s := 0.0
		for j := 0; j < lap.Cols; j++ {
			s += lap.At(i, j)
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	if !lap.IsSymmetric(1e-12) {
		t.Fatal("Laplacian not symmetric")
	}
}

func TestLaplacianCountsMultiEdges(t *testing.T) {
	g := dfg.New("m")
	a := g.AddNode(dfg.OpAdd, "")
	b := g.AddNode(dfg.OpAdd, "")
	g.AddEdge(a, b)
	g.AddEdgeDist(a, b, 1)
	g.MustFreeze()
	lap := Laplacian(g)
	if lap.At(0, 1) != -2 || lap.At(0, 0) != 2 {
		t.Fatalf("multi-edge weight wrong: off=%v diag=%v", lap.At(0, 1), lap.At(0, 0))
	}
}

func TestClusterSeparatesCommunities(t *testing.T) {
	g := twoCommunities(8)
	em, err := NewEmbedder(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := em.Cluster(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With one bridge edge, spectral clustering must cut exactly it.
	if p.InterE != 1 {
		t.Fatalf("InterE = %d, want 1 (assign=%v)", p.InterE, p.Assign)
	}
	if p.Sizes[0] != 8 || p.Sizes[1] != 8 {
		t.Fatalf("sizes = %v, want [8 8]", p.Sizes)
	}
	if p.IF != 0 {
		t.Fatalf("IF = %v, want 0", p.IF)
	}
}

func TestClusterKOutOfRange(t *testing.T) {
	g := twoCommunities(3)
	em, err := NewEmbedder(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Cluster(0, 1); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := em.Cluster(g.NumNodes()+1, 1); err == nil {
		t.Fatal("accepted k>n")
	}
}

func TestPartitionStats(t *testing.T) {
	g := dfg.New("s")
	for i := 0; i < 4; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(1, 2)
	g.MustFreeze()
	p := newPartition(g, 2, []int{0, 0, 1, 1})
	if p.IntraE != 2 || p.InterE != 1 {
		t.Fatalf("intra=%d inter=%d", p.IntraE, p.InterE)
	}
	if p.SizeSTD != 0 || p.IF != 0 {
		t.Fatalf("std=%v if=%v", p.SizeSTD, p.IF)
	}
}

func TestPartitionNormalisesIDs(t *testing.T) {
	g := dfg.New("s")
	for i := 0; i < 3; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	g.MustFreeze()
	p := newPartition(g, 3, []int{7, 7, 2}) // sparse raw ids
	if p.K != 2 {
		t.Fatalf("K = %d, want 2", p.K)
	}
	if p.Assign[0] != 0 || p.Assign[1] != 0 || p.Assign[2] != 1 {
		t.Fatalf("assign = %v", p.Assign)
	}
}

func TestImbalanceFactor(t *testing.T) {
	if got := imbalance([]int{5, 5, 10}, 20); got != 0.25 {
		t.Fatalf("IF = %v, want 0.25", got)
	}
	if got := imbalance(nil, 0); got != 0 {
		t.Fatalf("IF of empty = %v", got)
	}
}

func TestSweepRangeAndOrder(t *testing.T) {
	g := twoCommunities(6)
	parts, err := Sweep(g, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("sweep returned %d partitions, want 4", len(parts))
	}
	for i, p := range parts {
		// K may collapse below the requested k if k-means merges, but
		// never exceeds it.
		if p.K > 2+i {
			t.Fatalf("partition %d has K=%d > requested %d", i, p.K, 2+i)
		}
	}
}

func TestSweepEmptyRange(t *testing.T) {
	g := twoCommunities(3)
	if _, err := Sweep(g, 5, 4, 1); err == nil {
		t.Fatal("accepted empty range")
	}
}

func TestTopBalancedOrdering(t *testing.T) {
	parts := []*Partition{
		{K: 4, IF: 0.3, InterE: 5},
		{K: 5, IF: 0.1, InterE: 9},
		{K: 6, IF: 0.1, InterE: 2},
		{K: 7, IF: 0.2, InterE: 1},
	}
	top := TopBalanced(parts, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].K != 6 || top[1].K != 5 || top[2].K != 7 {
		t.Fatalf("order = %d,%d,%d", top[0].K, top[1].K, top[2].K)
	}
	// n larger than input is clamped.
	if got := TopBalanced(parts, 10); len(got) != 4 {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestBuildCDG(t *testing.T) {
	g := dfg.New("c")
	for i := 0; i < 5; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	g.AddEdge(0, 1) // intra cluster 0
	g.AddEdge(1, 2) // 0 -> 1
	g.AddEdge(1, 3) // 0 -> 1
	g.AddEdge(3, 4) // 1 -> 2 ... wait node4 cluster
	g.MustFreeze()
	p := newPartition(g, 3, []int{0, 0, 1, 1, 2})
	cdg := BuildCDG(g, p)
	if cdg.K != 3 {
		t.Fatalf("K = %d", cdg.K)
	}
	if cdg.Weight[0][1] != 2 {
		t.Fatalf("Weight[0][1] = %d, want 2", cdg.Weight[0][1])
	}
	if cdg.Weight[1][2] != 1 {
		t.Fatalf("Weight[1][2] = %d, want 1", cdg.Weight[1][2])
	}
	if cdg.UndirectedWeight(1, 0) != 2 {
		t.Fatalf("UndirectedWeight(1,0) = %d", cdg.UndirectedWeight(1, 0))
	}
	if cdg.TotalNodes() != 5 {
		t.Fatalf("TotalNodes = %d", cdg.TotalNodes())
	}
	if cdg.InterEdges() != 3 {
		t.Fatalf("InterEdges = %d, want 3", cdg.InterEdges())
	}
	if d := cdg.Degree(1); d != 2 {
		t.Fatalf("Degree(1) = %d, want 2", d)
	}
	if len(cdg.Members[0]) != 2 || cdg.Members[0][0] != 0 {
		t.Fatalf("Members[0] = %v", cdg.Members[0])
	}
}

func TestCDGConsistentWithPartitionStats(t *testing.T) {
	g := twoCommunities(8)
	em, err := NewEmbedder(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := em.Cluster(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cdg := BuildCDG(g, p)
	if cdg.InterEdges() != p.InterE {
		t.Fatalf("CDG InterEdges %d != partition InterE %d", cdg.InterEdges(), p.InterE)
	}
	total := 0
	for _, m := range cdg.Members {
		total += len(m)
	}
	if total != g.NumNodes() {
		t.Fatalf("members cover %d of %d nodes", total, g.NumNodes())
	}
}

func TestSweepCtxParallelMatchesSerial(t *testing.T) {
	g := twoCommunities(8)
	serial, _, err := SweepCtx(context.Background(), g, 2, 6, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, stats, err := SweepCtx(context.Background(), g, 2, 6, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.K != p.K || s.InterE != p.InterE || s.IntraE != p.IntraE || s.IF != p.IF {
			t.Fatalf("partition %d stats differ: %+v vs %+v", i, s, p)
		}
		for v := range s.Assign {
			if s.Assign[v] != p.Assign[v] {
				t.Fatalf("partition %d: node %d assigned %d serially, %d in parallel",
					i, v, s.Assign[v], p.Assign[v])
			}
		}
	}
	if stats.Tasks != len(serial) {
		t.Fatalf("pool ran %d tasks, want %d", stats.Tasks, len(serial))
	}
}

func TestSweepCtxCancelled(t *testing.T) {
	g := twoCommunities(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SweepCtx(ctx, g, 2, 5, 1, 2); err == nil {
		t.Fatal("cancelled sweep must fail")
	}
}

func TestSweepDeterministic(t *testing.T) {
	g := twoCommunities(7)
	a, err := Sweep(g, 2, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(g, 2, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for v := range a[i].Assign {
			if a[i].Assign[v] != b[i].Assign[v] {
				t.Fatal("sweep not deterministic for equal seeds")
			}
		}
	}
}

// TestFullScaleEigenAccuracy decomposes the full-scale invertmat
// Laplacian, whose low spectrum is highly degenerate, and bounds every
// eigenpair's residual ‖Lv−λv‖∞ and the eigenvectors' departure from
// orthonormality.
func TestFullScaleEigenAccuracy(t *testing.T) {
	spec, err := kernels.ByName("invertmat")
	if err != nil {
		t.Fatal(err)
	}
	lap := Laplacian(spec.Build(1))
	res, err := linalg.SymmetricEigen(context.Background(), lap)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-10
	n := lap.Rows
	lv := lap.Mul(res.Vectors)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if r := math.Abs(lv.At(i, k) - res.Values[k]*res.Vectors.At(i, k)); r > tol {
				t.Fatalf("pair %d: residual %.3g at row %d", k, r, i)
			}
		}
	}
	vt := res.Vectors.Transpose()
	for a := 0; a < n; a++ {
		va := vt.Data[a*n : a*n+n]
		for b := a; b < n; b++ {
			dot := 0.0
			for i, x := range vt.Data[b*n : b*n+n] {
				dot += va[i] * x
			}
			if a == b {
				dot--
			}
			if math.Abs(dot) > tol {
				t.Fatalf("v%d . v%d off by %.3g", a, b, math.Abs(dot))
			}
		}
	}
}
