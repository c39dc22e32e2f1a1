package kmeans

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, so a test can fire cancellation at a chosen check.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestClusterCtxCancelledBeforeWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := blobs([][]float64{{0, 0}, {5, 5}}, 10, 0.2, 1)
	res, err := ClusterCtx(ctx, pts, 2, Options{Seed: 1})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("res, err = %v, %v; want nil, context.Canceled", res, err)
	}
}

// Cancellation is seen at every restart and every Lloyd iteration, and
// a context that never fires leaves the result exactly as Cluster's.
func TestClusterCtxChecksEachIteration(t *testing.T) {
	pts := blobs([][]float64{{0, 0}, {5, 5}, {0, 5}}, 10, 0.3, 2)
	opts := Options{Seed: 3}
	// Four restarts of at least one iteration each make at least eight
	// checks; the first is before restart 0, the second inside it.
	for n := 1; n < 8; n++ {
		if _, err := ClusterCtx(&cancelAfter{context.Background(), n}, pts, 3, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: err = %v, want context.Canceled", n, err)
		}
	}
	want, err := Cluster(pts, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ClusterCtx(&cancelAfter{context.Background(), 1 << 30}, pts, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ClusterCtx with a live context differs from Cluster")
	}
}
