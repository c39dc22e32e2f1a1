package spr

import (
	"fmt"
	"os"
)

// debugOveruse enables a diagnostic dump of the congested resources of
// every failed II attempt (set PANORAMA_DEBUG_OVERUSE=1).
var debugOveruse = os.Getenv("PANORAMA_DEBUG_OVERUSE") != ""

// dumpOveruse prints the overused MRRG nodes and unrouted sinks of the
// current state to stderr.
func (st *state) dumpOveruse() {
	fmt.Fprintf(os.Stderr, "spr: II=%d overuse=%d unrouted=%d\n", st.ii, st.totalOveruse, st.unrouted)
	for n := range st.usage {
		if int(st.usage[n]) > int(st.g.Cap[n]) {
			fmt.Fprintf(os.Stderr, "  %s: usage %d cap %d\n", st.g.Describe(n), st.usage[n], st.g.Cap[n])
		}
	}
	for _, sig := range st.signals {
		for i, r := range sig.routes {
			if r == nil {
				s := sig.sinks[i]
				fmt.Fprintf(os.Stderr, "  unrouted: %d(pe%d,t%d) -> %d(pe%d,t%d) delta=%d\n",
					sig.src, st.placePE[sig.src], st.placeT[sig.src],
					s.consumer, st.placePE[s.consumer], st.placeT[s.consumer], s.delta)
			}
		}
	}
}
