// Package obs is the observability substrate of the Panorama stack: a
// stdlib-only tracing and metrics layer threaded through the whole
// mapping pipeline, the service daemon, and the benchmark harness.
//
// # Spans
//
// A [Trace] is a tree of [Span] values recorded for one request (one
// pipeline run, one service job, one harness sweep). The pipeline
// opens spans per stage (clustering, cluster mapping, each rung of the
// lower-mapper ladder) and the solvers annotate them with search-effort
// attributes: ILP variable/constraint counts, branch-and-bound nodes
// and incumbents, PathFinder iterations and rip-ups, simulated-
// annealing moves and accepts. A finished trace dumps as JSON
// ([Trace.JSON]; the -trace-out flag on cmd/panorama and
// cmd/experiments, GET /v1/trace/{id} on panoramad).
//
// Tracing is strictly opt-in and allocation-conscious. Spans travel in
// a context.Context ([WithSpan], [StartSpan]); when the context carries
// no span every method is a nil-receiver no-op, so the zero-config path
// costs one context lookup per pipeline stage and nothing per solver
// event. Live spans are allocated from per-trace slabs (blocks of
// spans handed out under the trace lock), not one heap object per
// span, and all mutation is guarded by the owning trace's mutex so
// concurrent children — the cluster-map candidate fan-out, parallel
// harness configurations — are race-clean.
//
// # Metrics
//
// A process-wide [Registry] ([Default]) holds the pipeline's counters
// and histograms; each service.Server owns another for its own
// counters. Hot paths touch only atomics: counters are a single atomic
// add, histogram observation is an atomic bucket increment plus a
// CAS-accumulated sum; label lookup ([CounterVec.With]) can be done
// once and the returned child retained. Gauges and values kept
// elsewhere are callbacks ([Registry.Func]) sampled at exposition
// time. The registry serialises in Prometheus text exposition format
// ([Registry.WriteProm]; served at /metricsz by panoramad), snapshots
// to a flat map ([Registry.Snapshot]) so the bench harness can print
// per-table solver-effort deltas, and [ParseSamples] reads an
// exposition back into the same flat map.
//
// OBSERVABILITY.md is the operator-facing reference: every metric name
// with type, labels, and meaning, plus how to read trace dumps and
// capture profiles.
package obs
