package service

import (
	"io"

	"panorama/internal/obs"
)

// registerGauges adds the server's live values to its registry as
// callback samples, read at exposition time.
func (s *Server) registerGauges() {
	gauge := func(name, help string, fn func() float64) {
		s.metrics.Func("gauge", name, help, nil, nil, fn)
	}
	peers := func() (n, down int) {
		if cl := s.opts.Cluster; cl != nil {
			cs := cl.Stats()
			return len(cs.Peers), cs.PeersDown
		}
		return 0, 0
	}
	gauge("panorama_cluster_peers", "Peers on the hash ring, self included (0 standalone).",
		func() float64 { n, _ := peers(); return float64(n) })
	gauge("panorama_cluster_peers_down", "Remote peers currently considered unreachable.",
		func() float64 { _, down := peers(); return float64(down) })
	gauge("panorama_service_breaker_failure_rate", "Windowed failure fraction behind the service breaker.",
		s.breaker.failureRate)
	gauge("panorama_service_breaker_state", "Service breaker state: 0 ok, 1 degrading admissions, 2 shedding load.",
		func() float64 { return float64(s.breaker.state()) })
	gauge("panorama_service_cache_entries", "Entries in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	gauge("panorama_service_draining", "1 while the server is draining for shutdown, else 0.", func() float64 {
		if s.isDraining() {
			return 1
		}
		return 0
	})
	gauge("panorama_service_queue_depth", "Jobs waiting behind the running ones.",
		func() float64 { return float64(len(s.queue)) })
	gauge("panorama_service_running_jobs", "Jobs currently executing.",
		func() float64 { return float64(s.running.Load()) })
	gauge("panorama_sse_active_streams", "Event streams currently open.",
		func() float64 { return float64(s.stats.sseActive.Load()) })
}

// WriteMetrics renders the server's own registry as Prometheus text
// (exposition format 0.0.4) and appends the process-wide pipeline
// metrics from obs.Default. It is the body of GET /metricsz and of the
// final snapshot panoramad logs on shutdown.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.metrics.WriteProm(w); err != nil {
		return err
	}
	return obs.Default.WriteProm(w)
}
