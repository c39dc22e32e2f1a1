package spectral

import (
	"context"
	"errors"
	"math"
	"testing"

	"panorama/internal/dfg"
)

func TestEmbedderRejectsEmptyGraph(t *testing.T) {
	if _, err := NewEmbedder(dfg.New("empty")); err == nil {
		t.Fatal("accepted empty graph")
	}
}

// A cancelled ctx reaches the caller as a matchable context error, so
// the pipeline classifies a clustering budget as ErrBudget.
func TestEmbedderCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := dfg.New("pair")
	g.AddNode(dfg.OpAdd, "")
	g.AddNode(dfg.OpAdd, "")
	g.AddEdge(0, 1)
	g.MustFreeze()
	if _, err := NewEmbedderCtx(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A cancelled ctx stops the k-means stage of one k as well.
func TestEmbedderClusterCtxCancelled(t *testing.T) {
	g := dfg.New("pair")
	g.AddNode(dfg.OpAdd, "")
	g.AddNode(dfg.OpAdd, "")
	g.AddEdge(0, 1)
	g.MustFreeze()
	em, err := NewEmbedder(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := em.ClusterCtx(ctx, 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The second eigenvector of a path graph's Laplacian (the Fiedler
// vector) is monotone along the path — a classic spectral property that
// pins down the eigensolver + Laplacian pipeline.
func TestFiedlerVectorMonotoneOnPath(t *testing.T) {
	g := dfg.New("path")
	n := 12
	for i := 0; i < n; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	g.MustFreeze()
	em, err := NewEmbedder(g)
	if err != nil {
		t.Fatal(err)
	}
	// First eigenvalue ~0 (connected graph), second > 0.
	if math.Abs(em.eigen.Values[0]) > 1e-8 {
		t.Fatalf("lambda0 = %v, want ~0", em.eigen.Values[0])
	}
	if em.eigen.Values[1] < 1e-8 {
		t.Fatalf("lambda1 = %v, want > 0", em.eigen.Values[1])
	}
	fiedler := em.eigen.Vectors.Col(1)
	increasing, decreasing := true, true
	for i := 1; i < n; i++ {
		if fiedler[i] < fiedler[i-1] {
			increasing = false
		}
		if fiedler[i] > fiedler[i-1] {
			decreasing = false
		}
	}
	if !increasing && !decreasing {
		t.Fatalf("Fiedler vector not monotone on a path: %v", fiedler)
	}
}

func TestDisconnectedGraphZeroEigenvalues(t *testing.T) {
	g := dfg.New("two-islands")
	for i := 0; i < 6; i++ {
		g.AddNode(dfg.OpAdd, "")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.MustFreeze()
	em, err := NewEmbedder(g)
	if err != nil {
		t.Fatal(err)
	}
	// Two connected components -> two ~zero eigenvalues.
	if math.Abs(em.eigen.Values[0]) > 1e-8 || math.Abs(em.eigen.Values[1]) > 1e-8 {
		t.Fatalf("expected two zero eigenvalues, got %v", em.eigen.Values[:3])
	}
	if em.eigen.Values[2] < 1e-8 {
		t.Fatalf("third eigenvalue should be positive: %v", em.eigen.Values[2])
	}
	// k=2 clustering must split exactly along the components.
	p, err := em.Cluster(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.InterE != 0 {
		t.Fatalf("component split cut %d edges", p.InterE)
	}
}
