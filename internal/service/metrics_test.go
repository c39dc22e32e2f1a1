package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"panorama/internal/core"
	"panorama/internal/obs"
	"panorama/internal/obs/obstest"
)

func getMetricsz(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metricsz Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// ownSection cuts a WriteMetrics body down to the server's own
// families: everything before the first family obs.Default serves.
func ownSection(t *testing.T, body string) string {
	t.Helper()
	var def strings.Builder
	if err := obs.Default.WriteProm(&def); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(def.String(), "\n")
	if i := strings.Index(body, first+"\n"); first != "" && i >= 0 {
		return body[:i]
	}
	return body
}

// The /metricsz golden test: two misses and one hit through a stub
// executor whose stage walls carry sub-millisecond parts, then the
// server's own section compared byte for byte against the recorded
// exposition. Family names, types, HELP text, label sets, order and
// value formatting are all part of the scrape contract.
func TestMetricszGolden(t *testing.T) {
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		return core.Summary{
			Kernel:  "stub",
			Success: true,
			Stages: []core.StageRecord{
				{Stage: "clustering", Wall: 40*time.Millisecond + 250*time.Microsecond},
				{Stage: "clustermap", Wall: 3*time.Millisecond + 125*time.Microsecond + 7},
				{Stage: "lower", Wall: 160*time.Millisecond + 500*time.Microsecond},
			},
		}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, seed := range []int{1, 2, 1} {
		body := fmt.Sprintf(`{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":%d,"wait":true}`, seed)
		if code, view := postMap(t, ts.URL, body); code != http.StatusOK || view.Result == nil {
			t.Fatalf("request %d: status %d view %+v", i, code, view)
		}
	}
	// The worker leaves running_jobs after it has published the
	// outcome the waiting client saw; scrape once it is idle.
	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		body = getMetricsz(t, ts.URL)
		if strings.Contains(body, "\npanorama_service_running_jobs 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never went idle:\n%s", body)
		}
		time.Sleep(time.Millisecond)
	}
	if err := obstest.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metricsz.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ownSection(t, body); got != string(want) {
		t.Fatalf("/metricsz server section differs from testdata/metricsz.golden:\n%s", got)
	}
}

// checkDumpWellFormed asserts the structural span invariants on a wire
// dump: non-negative durations, children inside their parent.
func checkDumpWellFormed(t *testing.T, parent *obs.SpanDump) {
	t.Helper()
	if parent.DurNS < 0 {
		t.Fatalf("span %s has negative duration", parent.Name)
	}
	for _, c := range parent.Children {
		if c.StartNS < parent.StartNS || c.StartNS+c.DurNS > parent.StartNS+parent.DurNS {
			t.Fatalf("span %s escapes parent %s", c.Name, parent.Name)
		}
		checkDumpWellFormed(t, c)
	}
}

func getTrace(t *testing.T, url, id string) (*obs.TraceDump, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var d obs.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return &d, resp.StatusCode
}

// Every job records a trace; /v1/trace/{id} serves it, rooted at the
// job id, with the pipeline's stage spans beneath.
func TestTraceEndpoint(t *testing.T) {
	srv, err := New(Options{Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, code := getTrace(t, ts.URL, "job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}

	code, view := postMap(t, ts.URL, `{"kernel":"fir","scale":0.1,"arch":"8x8","mapper":"ultrafast","seed":1,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("map: status %d %+v", code, view)
	}
	d, code := getTrace(t, ts.URL, view.ID)
	if code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if d.Name != view.ID || d.Root.Name != view.ID {
		t.Fatalf("trace rooted at %q/%q, want job id %q", d.Name, d.Root.Name, view.ID)
	}
	var lower *obs.SpanDump
	for _, c := range d.Root.Children {
		if c.Name == "lower" {
			lower = c
		}
	}
	if lower == nil {
		t.Fatalf("trace has no lower span: %+v", d.Root.Children)
	}
	checkDumpWellFormed(t, d.Root)
}

// The -race span-tree soak: 16 concurrent distinct requests through
// the real pipeline, every resulting trace well-formed and rooted at
// its own job.
func TestConcurrentRequestTracesWellFormed(t *testing.T) {
	srv, err := New(Options{Workers: 4, QueueSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]string, 16)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kernel":"fir","scale":0.1,"arch":"8x8","mapper":"ultrafast","seed":%d,"wait":true}`, i+1)
			code, view := postMap(t, ts.URL, body)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := map[string]bool{}
	for i, id := range ids {
		d, code := getTrace(t, ts.URL, id)
		if code != http.StatusOK {
			t.Fatalf("trace %d: status %d", i, code)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate trace root %q", d.Name)
		}
		seen[d.Name] = true
		if d.Root.Name != id {
			t.Fatalf("trace %d rooted at %q, want %q", i, d.Root.Name, id)
		}
		checkDumpWellFormed(t, d.Root)
	}
}

// The drain regression: a server shutting down with a job in flight
// must keep /metricsz serving (the daemon drains jobs before closing
// its listener) and must count the draining job's completion, so the
// final snapshot a scraper or the shutdown log sees is complete.
func TestDrainFlushesFinalMetrics(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	run := func(ctx context.Context, job *Job) (core.Summary, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return core.Summary{}, ctx.Err()
		}
		return core.Summary{
			Kernel:  "slow",
			Success: true,
			Stages:  []core.StageRecord{{Stage: "lower", Wall: 50 * time.Millisecond}},
		}, nil
	}
	srv, err := New(Options{Workers: 1, QueueSize: 4, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := postMap(t, ts.URL, `{"kernel":"fir","scale":0.25,"arch":"8x8","mapper":"pan-spr","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// While the job drains, the metrics endpoint must still serve and
	// report the drain in progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := getMetricsz(t, ts.URL)
		if err := obstest.ValidateExposition(body); err != nil {
			t.Fatalf("invalid exposition during drain: %v", err)
		}
		if strings.Contains(body, "panorama_service_draining 1") &&
			strings.Contains(body, "panorama_service_running_jobs 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain state never visible in /metricsz:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// The draining job's terminal counters are flushed: the final
	// snapshot shows its completion and stage time.
	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	final := sb.String()
	for _, want := range []string{
		"panorama_service_completed_total 1",
		`panorama_service_stage_seconds_total{stage="lower"} 0.05`,
		"panorama_service_running_jobs 0",
		"panorama_service_draining 1",
	} {
		if !strings.Contains(final, want) {
			t.Fatalf("final snapshot missing %q:\n%s", want, final)
		}
	}
}
