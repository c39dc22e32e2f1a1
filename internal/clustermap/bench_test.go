package clustermap_test

import (
	"context"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/clustermap"
	"panorama/internal/core"
	"panorama/internal/kernels"
	"panorama/internal/obs"
	"panorama/internal/spectral"
)

// BenchmarkClusterMapQuick maps the three candidate CDGs of one quick
// Pan-SPR* kernel (idctrows at scale 0.25 on 8x8, seed 1) the way the
// pipeline does, with the same per-cluster capacities. Clustering runs
// once outside the timer, so the time is cluster mapping alone: model
// building plus the split and row ILP solves. ns/node is the wall time
// per branch-and-bound node, the solver's per-node cost.
func BenchmarkClusterMapQuick(b *testing.B) {
	spec, err := kernels.ByName("idctrows")
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Build(0.25)
	a := arch.Preset8x8()
	r, c := a.ClusterRows, a.ClusterCols
	parts, err := spectral.Sweep(g, r, core.DefaultMaxClusters(g, a), 1)
	if err != nil {
		b.Fatal(err)
	}
	var usable []*spectral.Partition
	for _, p := range parts {
		if p.K >= r {
			usable = append(usable, p)
		}
	}
	var cdgs []*spectral.CDG
	for _, p := range spectral.TopBalanced(usable, 3) {
		cdgs = append(cdgs, spectral.BuildCDG(g, p))
	}
	mii := a.MII(g)
	opts := clustermap.Options{
		NodeCapacity: a.NumPEs() / a.NumClusters() * (mii + 1),
		MemCapacity:  len(a.MemPEs()) / a.NumClusters() * (mii + 1),
	}
	nodes := func() float64 { return obs.Default.Snapshot()["panorama_ilp_nodes_total"] }

	b.ReportAllocs()
	b.ResetTimer()
	n0 := nodes()
	for i := 0; i < b.N; i++ {
		for _, cdg := range cdgs {
			if _, err := clustermap.MapWithEscalationCtx(context.Background(), cdg, r, c, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	if n := nodes() - n0; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/node")
		b.ReportMetric(n/float64(b.N), "nodes/op")
	}
}
