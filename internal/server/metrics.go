package server

import (
	"sync"
	"time"
)

// metrics is the service's Prometheus registry: the admission counts
// the API keeps, counters and histograms guarded by one mutex (updates
// happen at job-lifecycle cadence, not per step), gauges sampled at
// scrape time by the server.
type metrics struct {
	admissions  Admissions
	mu          sync.Mutex
	completed   map[string]uint64 // terminal status → count
	interrupted uint64
	resumed     uint64
	retries     uint64
	duration    *Histogram // job wall time, seconds
	throughput  *Histogram // retired steps per wall second
	// Modeled energy in nanojoules by component, summed over successful
	// terminal jobs.
	energyNJ map[string]float64 // component → nJ
}

func newMetrics() *metrics {
	return &metrics{
		completed: map[string]uint64{"ok": 0, "degraded": 0, "failed": 0},
		// Wall-time buckets: 1ms to ~2min in decades.
		duration: NewHistogram(0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 120),
		// Step-throughput buckets: 100k/s to 200M/s.
		throughput: NewHistogram(1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 2e8),
		energyNJ: map[string]float64{
			"front_end": 0, "scalar": 0, "caches": 0, "neon": 0, "dsa": 0,
		},
	}
}

func (m *metrics) onInterrupt() {
	m.mu.Lock()
	m.interrupted++
	m.mu.Unlock()
}

func (m *metrics) onResume() {
	m.mu.Lock()
	m.resumed++
	m.mu.Unlock()
}

// onDone folds one terminal result into the counters and histograms.
func (m *metrics) onDone(r ResultJSON, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed[r.Status]++
	if r.Attempts > 1 {
		m.retries += uint64(r.Attempts - 1)
	}
	sec := wall.Seconds()
	m.duration.Observe(sec)
	if sec > 0 && r.Steps > 0 {
		m.throughput.Observe(float64(r.Steps) / sec)
	}
	if r.Energy != nil {
		m.energyNJ["front_end"] += r.Energy.FrontEndNJ
		m.energyNJ["scalar"] += r.Energy.ScalarNJ
		m.energyNJ["caches"] += r.Energy.CachesNJ
		m.energyNJ["neon"] += r.Energy.NEONNJ
		m.energyNJ["dsa"] += r.Energy.DSANJ
	}
}

// gauges are point-in-time values the server samples at scrape.
type gauges struct {
	queueDepth    int
	queueCapacity int
	inflight      int64
	memInUse      int64
	memCapacity   int64
}

// render writes the whole registry in Prometheus text exposition
// format, deterministically ordered.
func (m *metrics) render(g gauges) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var x Exposition
	x.Gauge("dsasimd_queue_depth", "Jobs admitted and waiting for a worker.", int64(g.queueDepth))
	x.Gauge("dsasimd_queue_capacity", "Bounded queue capacity.", int64(g.queueCapacity))
	x.Gauge("dsasimd_jobs_inflight", "Jobs currently executing on the worker pool.", g.inflight)
	x.Gauge("dsasimd_mem_inflight_bytes", "In-flight memory budget occupancy.", g.memInUse)
	x.Gauge("dsasimd_mem_budget_bytes", "In-flight memory budget capacity (0 = unlimited).", g.memCapacity)

	x.Counter("dsasimd_jobs_submitted_total", "Jobs accepted into the queue.", m.admissions.Submitted.Load())
	x.Counter("dsasimd_jobs_rejected_total", "Submissions refused with 429 (queue full) or 503 (draining).", m.admissions.Rejected.Load())
	x.Counter("dsasimd_jobs_deduped_total", "Submissions replayed from an earlier job via Idempotency-Key.", m.admissions.Deduped.Load())
	Labelled(&x, "counter", "dsasimd_jobs_completed_total", "Jobs finished, by terminal status.", "status", m.completed)

	x.Counter("dsasimd_jobs_interrupted_total", "Jobs checkpointed and unwound by a drain.", m.interrupted)
	x.Counter("dsasimd_jobs_resumed_total", "Jobs restored from a checkpoint after a restart.", m.resumed)
	x.Counter("dsasimd_job_retries_total", "Extra attempts across all jobs (degradation reruns included).", m.retries)

	Labelled(&x, "counter", "dsasimd_energy_nanojoules_total", "Modeled energy over successful jobs, by component.", "component", m.energyNJ)

	x.Histogram("dsasimd_job_duration_seconds", "Terminal job wall time in seconds.", m.duration)
	x.Histogram("dsasimd_job_steps_per_second", "Retired simulation steps per wall second, per terminal job.", m.throughput)
	return x.String()
}
