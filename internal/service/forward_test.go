package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"panorama/internal/cluster"
	"panorama/internal/core"
	"panorama/internal/failure"
)

// peerPair wires two servers into a shared two-node ring and reports
// per-peer execution counts. Each server's executor stamps the
// summary's Kernel with the peer's name so tests can see where a job
// actually ran.
type peerPair struct {
	srvA, srvB   *Server
	tsA, tsB     *httptest.Server
	clA, clB     *cluster.Cluster
	execA, execB atomic.Int64
}

func newPeerPair(t *testing.T, runB RunFunc) *peerPair {
	t.Helper()
	p := &peerPair{}
	mk := func(name string, execs *atomic.Int64, run RunFunc, cl *cluster.Cluster) *Server {
		if run == nil {
			run = func(ctx context.Context, job *Job) (core.Summary, error) {
				execs.Add(1)
				return core.Summary{Kernel: "ran-on-" + name, Success: true}, nil
			}
		} else {
			inner := run
			run = func(ctx context.Context, job *Job) (core.Summary, error) {
				execs.Add(1)
				return inner(ctx, job)
			}
		}
		srv, err := New(Options{Workers: 1, QueueSize: 16, Run: run, Cluster: cl, RetryBase: -1})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	p.clA = cluster.New(cluster.Config{FailThreshold: 1})
	p.clB = cluster.New(cluster.Config{FailThreshold: 1})
	p.srvA = mk("A", &p.execA, nil, p.clA)
	p.srvB = mk("B", &p.execB, runB, p.clB)
	p.tsA = httptest.NewServer(p.srvA.Handler())
	p.tsB = httptest.NewServer(p.srvB.Handler())
	peers := []string{p.tsA.URL, p.tsB.URL}
	p.clA.Configure(p.tsA.URL, peers)
	p.clB.Configure(p.tsB.URL, peers)
	t.Cleanup(func() {
		p.srvA.Shutdown(context.Background())
		p.srvB.Shutdown(context.Background())
		p.tsA.Close()
		p.tsB.Close()
	})
	return p
}

// requestOwnedBy scans seeds (from startSeed up) for a request whose
// fingerprint the given peer owns, so tests can aim jobs at either
// side of the ring.
func (p *peerPair) requestOwnedBy(t *testing.T, owner string, startSeed int64) (string, string) {
	t.Helper()
	for seed := startSeed; seed < startSeed+200; seed++ {
		body := fmt.Sprintf(`{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":%d,"wait":true}`, seed)
		res, err := p.srvA.resolve(&Request{Kernel: "fir", Scale: 0.1, Arch: "4x4", Mapper: "ultrafast", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if p.clA.Owner(res.fingerprint) == owner {
			return body, res.fingerprint
		}
	}
	t.Fatal("no seed found owned by " + owner)
	return "", ""
}

// The tentpole path: a job submitted to the non-owner is executed on
// the ring owner exactly once, the origin answers its client with the
// owner's result, and the origin's LRU is peer-filled so a repeat is a
// local cache hit.
func TestForwardToOwner(t *testing.T) {
	p := newPeerPair(t, nil)
	body, fp := p.requestOwnedBy(t, p.tsB.URL, 1) // B owns it; submit to A

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Result == nil {
		t.Fatalf("forwarded map: status %d view %+v", code, view)
	}
	if view.Result.Kernel != "ran-on-B" {
		t.Fatalf("job ran on %q, want the owner B", view.Result.Kernel)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 1 {
		t.Fatalf("executions A=%d B=%d, want 0/1", a, b)
	}
	// The owner resolved the forwarded wire request to the same
	// fingerprint — the property fleet-wide exactly-once rests on.
	if _, ok := p.srvB.Cache().Get(fp); !ok {
		t.Fatalf("owner cache has no entry for origin fingerprint %s", fp)
	}
	// Opportunistic peer fill: the origin cached the owner's answer.
	if _, ok := p.srvA.Cache().Get(fp); !ok {
		t.Fatal("origin cache not peer-filled from the owner response")
	}
	stA, stB := metricsOf(t, p.srvA), metricsOf(t, p.srvB)
	if stA["panorama_cluster_forwarded_total"] != 1 || stA["panorama_cluster_forward_fallback_total"] != 0 {
		t.Errorf("origin stats: forwarded=%v fallback=%v, want 1/0", stA["panorama_cluster_forwarded_total"], stA["panorama_cluster_forward_fallback_total"])
	}
	if stB["panorama_cluster_origin_jobs_total"] != 1 {
		t.Errorf("owner stats: originJobs=%v, want 1", stB["panorama_cluster_origin_jobs_total"])
	}

	// A repeat of the same request at the origin is now a cache hit:
	// no new execution anywhere.
	code, view = postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Cache != "hit" {
		t.Fatalf("repeat: status %d cache %q, want 200 hit", code, view.Cache)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 1 {
		t.Fatalf("repeat executions A=%d B=%d, want 0/1", a, b)
	}
}

// A job the local peer owns never leaves the node.
func TestOwnerRunsLocally(t *testing.T) {
	p := newPeerPair(t, nil)
	body, _ := p.requestOwnedBy(t, p.tsA.URL, 1)
	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-on-A" {
		t.Fatalf("local map: status %d view %+v", code, view)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 1 || b != 0 {
		t.Fatalf("executions A=%d B=%d, want 1/0", a, b)
	}
}

// The single-hop guard: a peer that receives a forwarded request it
// does not own answers 421 instead of forwarding again.
func TestForwardLoopGuard(t *testing.T) {
	p := newPeerPair(t, nil)
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1) // A does NOT own it

	req, err := http.NewRequest(http.MethodPost, p.tsA.URL+"/v1/map", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwardedFrom, "http://some-peer:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("second hop: status %d, want 421", resp.StatusCode)
	}
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 0 {
		t.Fatalf("guard executed something: A=%d B=%d", a, b)
	}
	if st := metricsOf(t, p.srvA); st["panorama_cluster_misdirected_total"] != 1 {
		t.Errorf("misdirected=%v, want 1", st["panorama_cluster_misdirected_total"])
	}
}

// Owner unreachable: the origin falls back to local execution within
// the same attempt, the client still gets a result, and the peer
// breaker marks the owner down so the next job skips the forward.
func TestForwardOwnerDownFallback(t *testing.T) {
	p := newPeerPair(t, nil)
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1)
	p.tsB.Close() // the owner is gone

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusOK || view.Result == nil || view.Result.Kernel != "ran-on-A" {
		t.Fatalf("fallback map: status %d view %+v", code, view)
	}
	if a := p.execA.Load(); a != 1 {
		t.Fatalf("executions A=%d, want 1 (local fallback)", a)
	}
	if p.clA.Healthy(p.tsB.URL) {
		t.Error("dead owner still marked healthy at FailThreshold 1")
	}
	st := metricsOf(t, p.srvA)
	if st["panorama_cluster_forward_fallback_total"] != 1 || st["panorama_cluster_forwarded_total"] != 0 {
		t.Errorf("stats fallback=%v forwarded=%v, want 1/0", st["panorama_cluster_forward_fallback_total"], st["panorama_cluster_forwarded_total"])
	}
	if st["panorama_cluster_peers_down"] != 1 {
		t.Errorf("peersDown=%v, want 1", st["panorama_cluster_peers_down"])
	}

	// Second job owned by the down peer: the health check skips the
	// forward entirely — no new fallback, straight to local.
	body2, _ := p.requestOwnedBy(t, p.tsB.URL, 1000)
	code, _ = postMap(t, p.tsA.URL, body2)
	if code != http.StatusOK {
		t.Fatalf("second map: status %d", code)
	}
	if st := metricsOf(t, p.srvA); st["panorama_cluster_forward_fallback_total"] != 1 {
		t.Errorf("down-peer forward attempted again: fallback=%v, want still 1", st["panorama_cluster_forward_fallback_total"])
	}
}

// A typed remote failure is an outcome, not a peer problem: the origin
// reports the owner's failure class to its client and does not mark
// the peer down.
func TestForwardRemoteTypedError(t *testing.T) {
	p := newPeerPair(t, func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{}, fmt.Errorf("%w: no placement at any II", failure.ErrInfeasible)
	})
	body, _ := p.requestOwnedBy(t, p.tsB.URL, 1)

	code, view := postMap(t, p.tsA.URL, body)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("remote infeasible: status %d, want 422", code)
	}
	if view.Error == nil || view.Error.Class != "infeasible" {
		t.Fatalf("remote infeasible: error %+v, want class infeasible", view.Error)
	}
	// Infeasible is terminal: the origin must not burn local attempts
	// re-proving it.
	if a, b := p.execA.Load(), p.execB.Load(); a != 0 || b != 1 {
		t.Fatalf("executions A=%d B=%d, want 0/1", a, b)
	}
	if !p.clA.Healthy(p.tsB.URL) {
		t.Error("typed remote failure tripped the peer breaker")
	}
}

// Fleet accounting: a forwarded attempt is the owner's execution, so
// executed, completed, failed and stage time summed over both peers
// read one execution's worth — the origin counts none of them.
func TestForwardCountsOneExecution(t *testing.T) {
	total := func(p *peerPair, key string) float64 {
		return metricsOf(t, p.srvA)[key] + metricsOf(t, p.srvB)[key]
	}
	ok := newPeerPair(t, func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "ran-on-B", Success: true,
			Stages: []core.StageRecord{{Stage: "lower", Wall: 100 * time.Millisecond}}}, nil
	})
	body, _ := ok.requestOwnedBy(t, ok.tsB.URL, 1)
	if code, _ := postMap(t, ok.tsA.URL, body); code != http.StatusOK {
		t.Fatalf("forwarded map: status %d", code)
	}
	for key, want := range map[string]float64{
		"panorama_service_executed_total":                     1,
		"panorama_service_completed_total":                    1,
		`panorama_service_stage_seconds_total{stage="lower"}`: 0.1,
		`panorama_service_failed_total{class="infeasible"}`:   0,
		"panorama_cluster_forwarded_total":                    1,
	} {
		if got := total(ok, key); got != want {
			t.Errorf("%s summed over both peers = %v, want %v", key, got, want)
		}
	}

	bad := newPeerPair(t, func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{}, fmt.Errorf("%w: no placement at any II", failure.ErrInfeasible)
	})
	body, _ = bad.requestOwnedBy(t, bad.tsB.URL, 1)
	if code, _ := postMap(t, bad.tsA.URL, body); code != http.StatusUnprocessableEntity {
		t.Fatalf("forwarded infeasible map: status %d, want 422", code)
	}
	for key, want := range map[string]float64{
		"panorama_service_executed_total":                   1,
		"panorama_service_completed_total":                  0,
		`panorama_service_failed_total{class="infeasible"}`: 1,
	} {
		if got := total(bad, key); got != want {
			t.Errorf("remote failure: %s summed over both peers = %v, want %v", key, got, want)
		}
	}
}

// Gossip probing recovers a down peer and opportunistically fills the
// local cache from the peer's recent completions.
func TestGossipRecoveryAndCacheFill(t *testing.T) {
	// Server B completes a job; server A gossips and pulls the entry.
	// B runs standalone (no cluster): ring ownership depends on the
	// ephemeral listen ports, and if B forwarded the seed job to A the
	// entry would land in A's cache by execution, making the gossip
	// fill unobservable. A standalone B always executes locally — and
	// /v1/cluster/statsz serves Recent either way.
	clA := cluster.New(cluster.Config{FailThreshold: 1})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{Kernel: "warm", Success: true}, nil
	}
	srvB, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer func() { srvB.Shutdown(context.Background()); tsB.Close() }()

	srvA, err := New(Options{Workers: 1, QueueSize: 4, Run: run, Cluster: clA,
		GossipInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer func() { srvA.Shutdown(context.Background()); tsA.Close() }()

	clA.Configure(tsA.URL, []string{tsA.URL, tsB.URL})

	// B completes a job locally (no forwarding: A's gossip is what we
	// are testing, so submit straight to B).
	code, view := postMap(t, tsB.URL, `{"kernel":"fir","scale":0.1,"arch":"4x4","mapper":"ultrafast","seed":7,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("seed job: status %d", code)
	}
	fp := view.Fingerprint

	// Mark B down at A; a successful probe must recover it.
	clA.ReportFailure(tsB.URL)
	if clA.Healthy(tsB.URL) {
		t.Fatal("setup: B should be down at A")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, filled := srvA.Cache().Get(fp)
		if filled && clA.Healthy(tsB.URL) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never recovered peer (healthy=%v) or filled cache (filled=%v)",
				clA.Healthy(tsB.URL), filled)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := metricsOf(t, srvA); st["panorama_cluster_gossip_fill_total"] < 1 {
		t.Errorf("gossipFill=%v, want ≥1", st["panorama_cluster_gossip_fill_total"])
	}
}
