package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of the catalogue. BENCHMARK.json lists the
// same names, units and directions; the self-test holds them equal.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a change to this
	// layer should move.
	moves string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. ok_ratio is 1 − error_ratio (failed, degraded,
// wrong-output or unexpected-status operations ÷ operations attempted;
// the expected 400 is not an error): a metric that is 0 on a healthy
// run has no relative spread, so the benchmark reports the complement.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "jobs_per_s", unit: "jobs/s", better: "higher"},
	{name: "job_p50_ms", unit: "ms", better: "lower"},
	{name: "job_p90_ms", unit: "ms", better: "lower"},
	{name: "eq_msteps_per_s", unit: "Msteps/s", better: "higher"},
	{name: "ok_ratio", unit: "ratio", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "dsa_speedup_geomean", unit: "x", better: "higher"},
	{name: "energy_savings_pct", unit: "%", better: "higher"},
}

// perLayer are the traced run's metrics, grouped by module. The
// simulated counters (miss ratios, dsa.*, neon.*) are summed over the
// distinct jobs of the run, so they repeat exactly for a given input
// set and a host-only change must leave them identical.
var perLayer = []metricDef{
	{"mem.construct_ms", "ms", "lower", "job_p50_ms, jobs_per_s, peak_rss_mb on suite-batch and service-cluster; ~0 share on long-checkpoint"},
	{"mem.digest_ms", "ms", "lower", "job_p50_ms, jobs_per_s on suite-batch and service-cluster; ~0 share on long-checkpoint"},
	{"mem.alloc_mb_per_job", "MB", "lower", "peak_rss_mb, jobs_per_s on suite-batch and service-cluster"},
	{"mem.l1_miss_ratio", "ratio", "lower", "dsa_speedup_geomean on suite-batch (simulated)"},
	{"mem.l2_miss_ratio", "ratio", "lower", "dsa_speedup_geomean on suite-batch; L2 misses only on long-checkpoint (simulated)"},
	{"workloads.setup_ms", "ms", "lower", "job_p50_ms on suite-batch"},
	{"workloads.check_ms", "ms", "lower", "job_p50_ms on suite-batch"},
	{"asm.parse_ms", "ms", "lower", "job_p50_ms on long-checkpoint"},
	{"cpu.run_ms.scalar", "ms", "lower", "eq_msteps_per_s on long-checkpoint (dominant); small on suite-batch"},
	{"cpu.msteps_per_s", "Msteps/s", "higher", "eq_msteps_per_s on long-checkpoint (dominant); small on suite-batch"},
	{"dsa.run_ms.original", "ms", "lower", "eq_msteps_per_s on suite-batch"},
	{"dsa.run_ms.extended", "ms", "lower", "eq_msteps_per_s on long-checkpoint and suite-batch"},
	{"dsa.wall_ratio.extended", "ratio", "lower", "eq_msteps_per_s on long-checkpoint and suite-batch"},
	{"dsa.observations", "count", "lower", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.loops_detected", "count", "higher", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.takeovers", "count", "higher", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.takeover_yield", "ratio", "higher", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.cache_hit_ratio", "ratio", "higher", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.vectorized_iters", "count", "higher", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.fallbacks", "count", "lower", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"dsa.analysis_share", "ratio", "lower", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"neon.vec_ops", "count", "higher", "dsa_speedup_geomean, energy_savings_pct on suite-batch (simulated)"},
	{"snapshot.save_ms", "ms", "lower", "job_p50_ms, eq_msteps_per_s on long-checkpoint; absent on suite-batch"},
	{"snapshot.write_ms", "ms", "lower", "job_p50_ms, eq_msteps_per_s on long-checkpoint; absent on suite-batch"},
	{"snapshot.bytes", "bytes", "lower", "job_p50_ms, eq_msteps_per_s on long-checkpoint; absent on suite-batch"},
	{"snapshot.count_per_job", "count", "lower", "job_p50_ms, eq_msteps_per_s on long-checkpoint; absent on suite-batch"},
	{"snapshot.restore_ms", "ms", "lower", "only resumed jobs, which no workload has at steady state"},
	{"runner.job_ms", "ms", "lower", "job_p50_ms on suite-batch"},
	{"runner.overhead_ms", "ms", "lower", "job_p50_ms on suite-batch"},
	{"runner.queue_wait_ms", "ms", "lower", "job_p50_ms on suite-batch"},
	{"runner.attempts_per_job", "count", "lower", "ok_ratio on every workload"},
	{"server.result_encode_ms", "ms", "lower", "job_p50_ms on service-cluster; not on the runner workloads"},
	{"server.get_ms", "ms", "lower", "jobs_per_s on service-cluster"},
	{"server.list_ms", "ms", "lower", "jobs_per_s on service-cluster"},
	{"server.metrics_ms", "ms", "lower", "jobs_per_s on service-cluster"},
	{"server.dedup_ms", "ms", "lower", "jobs_per_s on service-cluster"},
	{"server.refused", "count", "lower", "ok_ratio on service-cluster"},
	{"cluster.submit_ms", "ms", "lower", "job_p50_ms, jobs_per_s on service-cluster"},
	{"cluster.dispatch_wait_ms", "ms", "lower", "job_p50_ms, jobs_per_s on service-cluster (jobs a heartbeat saw running)"},
	{"cluster.notify_ms", "ms", "lower", "job_p50_ms, jobs_per_s on service-cluster"},
	{"cluster.rpc_retries", "count", "lower", "job_p50_ms, ok_ratio on service-cluster"},
	{"cluster.heartbeats_rejected", "count", "lower", "job_p50_ms, ok_ratio on service-cluster"},
	{"trace.overhead_pct", "%", "lower", "none; it must stay small"},
}

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

// mean returns the arithmetic mean (0 for no values).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantile returns the q-quantile of v by the method of Python's
// statistics.quantiles (exclusive): the 1-based position q·(n+1),
// interpolated between neighbours and clamped to the extremes. 0 for
// no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostCPU reads the host's steal time and total CPU time, in clock
// ticks, from /proc/stat; both are 0 where it cannot be read. The
// report prints the steal share of a run, so a reader can tell a run
// on a crowded host from a slow program.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuTime is the CPU time the process has used so far, user and
// system. A round's report line prints it beside the wall time: on a
// shared host the same work takes a varying amount of CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
