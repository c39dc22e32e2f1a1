package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"panorama/internal/clustermap"
	"panorama/internal/obs"
)

// searchPin records the cluster-mapping search of one quick Pan-SPR*
// run (idctrows at scale 0.25 on 8x8, seed 1): the branch-and-bound
// nodes and ILP solves summed over the trace, and the hash of the
// chosen cluster map. Mapping hashes alone can hide a search change
// that happens to land on the same optimum; this pin makes any change
// to what the ILP solver explores fail here, to be re-recorded
// deliberately, instead of silently moving mappings later.
var searchPin = struct {
	nodes, solves int64
	clusterMap    string
}{267764, 99, "bb78036e69a3855c047e42c8ededc3faadabe9743f29dd0f7ac2de2379cd878e"}

func TestSearchPinsClusterMapping(t *testing.T) {
	res, tr := tracedRun(t, "idctrows", 0.25, 1)
	var nodes, solves int64
	var walk func(d *obs.SpanDump)
	walk = func(d *obs.SpanDump) {
		n, _ := d.Attrs["ilp.nodes"].(int64)
		s, _ := d.Attrs["ilp.solves"].(int64)
		nodes, solves = nodes+n, solves+s
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(tr.Dump().Root)
	got := clusterMapHash(res.ClusterMap)
	if nodes != searchPin.nodes || solves != searchPin.solves || got != searchPin.clusterMap {
		t.Fatalf("cluster-mapping search moved: nodes/solves/cluster map = %d/%d/%s, pinned %d/%d/%s; "+
			"a solver change that alters the search must re-record the pin (and bump CodeVersion if mappings move)",
			nodes, solves, got, searchPin.nodes, searchPin.solves, searchPin.clusterMap)
	}
}

// clusterMapHash hashes every CDG node's row and column set.
func clusterMapHash(cm *clustermap.Result) string {
	h := sha256.New()
	var buf [8]byte
	wr := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wr(len(cm.Rows))
	for v, row := range cm.Rows {
		wr(row)
		wr(len(cm.Cols[v]))
		for _, col := range cm.Cols[v] {
			wr(col)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
