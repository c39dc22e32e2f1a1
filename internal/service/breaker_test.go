package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"panorama/internal/core"
)

func TestBreakerStates(t *testing.T) {
	var nilB *breaker
	if nilB.state() != breakerOK {
		t.Fatal("nil breaker must report ok")
	}
	nilB.record(true) // must not panic
	if nilB.failureRate() != 0 {
		t.Fatal("nil breaker must report rate 0")
	}

	b := newBreaker(4, 0.5, 0.8)
	if b.state() != breakerOK {
		t.Fatal("empty breaker must report ok")
	}
	b.record(true)
	if b.state() != breakerOK {
		t.Fatal("a single early failure must not trip the breaker (under half a window)")
	}
	b.record(true)
	if b.state() != breakerShed {
		t.Fatalf("2/2 failures: state %v, want shed", b.state())
	}
	b.record(false)
	b.record(false)
	if got := b.state(); got != breakerDegrade {
		t.Fatalf("2/4 failures: state %v rate %v, want degrade", got, b.failureRate())
	}
	// Successes push the failures out of the ring: full recovery.
	for i := 0; i < 4; i++ {
		b.record(false)
	}
	if b.state() != breakerOK || b.failureRate() != 0 {
		t.Fatalf("after 4 successes: state %v rate %v, want ok/0", b.state(), b.failureRate())
	}
	for _, s := range []breakerState{breakerOK, breakerDegrade, breakerShed} {
		if s.String() == "" {
			t.Fatalf("state %d has no name", s)
		}
	}
}

// Past the shed threshold the service refuses new computations with
// 503 + Retry-After — but keeps serving cache hits.
func TestBreakerShedsLoad(t *testing.T) {
	srv, err := New(Options{
		Workers:       1,
		MaxAttempts:   1,
		RetryBase:     -1,
		BreakerWindow: 4, // judged after 2 samples; 2 failures → rate 1.0 → shed
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if job.Seed < 100 {
				return core.Summary{}, errors.New("backend down")
			}
			return core.Summary{Kernel: "ok", Success: true, MII: 1, II: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for seed := 1; seed <= 2; seed++ {
		body := `{"kernel":"fir","scale":0.25,"arch":"8x8","seed":` + string(rune('0'+seed)) + `,"wait":true}`
		if code, _ := postMap(t, ts.URL, body); code != http.StatusInternalServerError {
			t.Fatalf("seed %d: status %d, want 500", seed, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		jsonBody(`{"kernel":"fir","scale":0.25,"arch":"8x8","seed":100,"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission past shed threshold: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	st := metricsOf(t, srv)
	if st["panorama_service_shed_total"] != 1 || st["panorama_service_breaker_state"] != float64(breakerShed) {
		t.Fatalf("shed=%v breakerState=%v, want 1/2", st["panorama_service_shed_total"], st["panorama_service_breaker_state"])
	}

	// A result already in the cache still serves while shedding.
	srv.Cache().Put(Entry{Fingerprint: "deadbeef", Summary: core.Summary{Kernel: "cached", II: 1}})
	rr, err := http.Get(ts.URL + "/v1/result/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("cached result while shedding: status %d, want 200", rr.StatusCode)
	}
}

// In the degrade band the service admits new work on the cheaper
// mapper rung instead of shedding it.
func TestBreakerDegradesAdmissions(t *testing.T) {
	srv, err := New(Options{
		Workers:        1,
		MaxAttempts:    1,
		RetryBase:      -1,
		BreakerWindow:  4,
		BreakerDegrade: 0.5,
		BreakerShed:    0.9,
		Run: func(ctx context.Context, job *Job) (core.Summary, error) {
			if job.Seed <= 2 {
				return core.Summary{}, errors.New("backend flaky")
			}
			return core.Summary{Kernel: "ok", Success: true, MII: 1, II: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Successes first: two early failures in an empty window would read
	// as rate 1.0 and shed instead of landing in the degrade band.
	for _, seed := range []int{3, 4, 1, 2} {
		body := `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"ultrafast","seed":` + string(rune('0'+seed)) + `,"wait":true}`
		code, _ := postMap(t, ts.URL, body)
		want := http.StatusOK
		if seed <= 2 {
			want = http.StatusInternalServerError
		}
		if code != want {
			t.Fatalf("seed %d: status %d, want %d", seed, code, want)
		}
	}
	if st := metricsOf(t, srv); st["panorama_service_breaker_state"] != float64(breakerDegrade) {
		t.Fatalf("breakerState=%v rate=%v, want 1 (degrade)", st["panorama_service_breaker_state"], st["panorama_service_breaker_failure_rate"])
	}
	// A pan-spr request is admitted on the pan-ultrafast rung.
	code, v := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":5,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("degraded admission: status %d", code)
	}
	if v.Mapper != "pan-ultrafast" {
		t.Fatalf("degraded admission ran mapper %q, want pan-ultrafast", v.Mapper)
	}
	if st := metricsOf(t, srv); st["panorama_service_degraded_total"] == 0 {
		t.Fatal("admission degrade not counted")
	}
}
