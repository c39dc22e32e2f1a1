package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"panorama/internal/arch"
	"panorama/internal/core"
	"panorama/internal/kernels"
)

// codeVersionPin records the hash of one quick pan-ultrafast mapping
// (mmul at scale 0.25 on 8x8, seed 1) next to the CodeVersion it was
// recorded under. The cache key folds in CodeVersion and nothing else
// about the code, so a change that moves this mapping without bumping
// CodeVersion would let the cache serve results the code no longer
// produces. mmul's partition is sensitive to the spectral embedding,
// clustering and cluster mapping alike.
var codeVersionPin = struct {
	version int
	hash    string
}{4, "5c9bb7b56f67f7841dc8dc034ee941660789c16506c66da733c8683476d058e2"}

func TestCodeVersionPinsMappingHash(t *testing.T) {
	spec, err := kernels.ByName("mmul")
	if err != nil {
		t.Fatal(err)
	}
	lower, err := core.NewLowerByName("ultrafast", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MapPanoramaCtx(context.Background(), spec.Build(0.25), arch.Preset8x8(), lower,
		core.Config{Seed: 1, RelaxOnFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	got := mappingHash(res)
	switch {
	case CodeVersion != codeVersionPin.version:
		t.Fatalf("CodeVersion is %d but the pin was recorded under %d: re-record the pin as {%d, %q}",
			CodeVersion, codeVersionPin.version, CodeVersion, got)
	case got != codeVersionPin.hash:
		t.Fatalf("pan-ultrafast mmul mapping hash moved from %s to %s under CodeVersion %d: "+
			"bump CodeVersion and re-record the pin", codeVersionPin.hash, got, CodeVersion)
	}
}

// mappingHash hashes the chosen partition and the lower mapping: II,
// every node's PE and cycle, and every route.
func mappingHash(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	wr := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wr(len(res.Partition.Assign))
	for _, c := range res.Partition.Assign {
		wr(c)
	}
	m := res.Lower.Mapping
	wr(m.II)
	for i := range m.PlacePE {
		wr(m.PlacePE[i])
		wr(m.PlaceT[i])
	}
	wr(len(m.Routes))
	for _, r := range m.Routes {
		wr(len(r))
		for _, n := range r {
			wr(int(n))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
