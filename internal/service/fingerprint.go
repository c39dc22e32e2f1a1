package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"time"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/dfg"
)

// CodeVersion is folded into every fingerprint so cached results are
// never served across algorithm changes. Bump it whenever a change to
// the mapper stack can alter results for identical inputs.
const CodeVersion = 4

// Key computes the canonical content address of one mapping
// computation: the structural DFG fingerprint, the architecture
// parameters that determine the fabric, the mapper identity and seed,
// the stage budgets (budgets change what a degraded run returns), and
// CodeVersion. Identical keys denote identical results, which is what
// lets the cache serve them and the coalescer share them.
//
// Deliberately excluded: graph/arch names (cosmetic), worker counts
// (PR-1 guarantees bit-identical results at any parallelism), and the
// caller's context deadline (the job runs under Budgets.Total, which
// is included).
func Key(g *dfg.Graph, a *arch.CGRA, mapper string, seed int64, budgets core.Budgets) string {
	h := sha256.New()
	fmt.Fprintf(h, "panorama/service/v%d\x00", CodeVersion)
	fmt.Fprintf(h, "dfg:%s\x00", g.Fingerprint())
	writeInts(h,
		a.Rows, a.Cols, a.ClusterRows, a.ClusterCols,
		a.NumRegs, a.RFReadPorts, a.RFWritePorts, a.InterClusterLinks)
	fmt.Fprintf(h, "mapper:%s\x00", mapper)
	writeInts(h, int(seed))
	writeDurations(h, budgets.Clustering, budgets.ClusterMap, budgets.Lower, budgets.Total)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
}

func writeDurations(h hash.Hash, ds ...time.Duration) {
	for _, d := range ds {
		writeInts(h, int(d))
	}
}
