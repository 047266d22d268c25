package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dsa"
	"repro/internal/stats"
)

// Article1Workloads is the benchmark set of Article 1 (SBCCI).
var Article1Workloads = []string{
	"mm_32x32", "mm_64x64", "rgb_gray", "gaussian", "susan_e", "q_sort", "dijkstra",
}

// Article2Workloads adds the dynamic-loop benchmarks of Article 2 (SBESC).
var Article2Workloads = []string{
	"mm_32x32", "mm_64x64", "rgb_gray", "gaussian", "susan_e", "q_sort", "dijkstra", "bit_count",
}

// Article3Workloads is the full DATE suite (the supplementary echo
// workload appears only in the summary and ablations).
var Article3Workloads = []string{
	"mm_32x32", "mm_64x64", "rgb_gray", "gaussian", "susan_e",
	"q_sort", "dijkstra", "bit_count", "str_prep",
}

// Article1Fig12 prints the Article 1 Fig. 12 rows: NEON
// auto-vectorization vs (original) DSA speedup over the ARM original
// execution.
func (s *Suite) Article1Fig12(w io.Writer) {
	fmt.Fprintln(w, "== Article 1, Fig. 12 — NEON Auto-Vectorization vs. DSA performance")
	fmt.Fprintln(w, "   (speedup over ARM Original Execution)")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "benchmark", "autovec", "dsa")
	var av, dv []float64
	for _, name := range Article1Workloads {
		a := s.Speedup(name, ModeAutoVec)
		d := s.Speedup(name, ModeDSAOrig)
		av, dv = append(av, a), append(dv, d)
		fmt.Fprintf(w, "%-12s %11.2fx %11.2fx\n", name, a, d)
	}
	fmt.Fprintf(w, "%-12s %11.2fx %11.2fx   (paper: DSA outperforms autovec by ~6%% here)\n",
		"geomean", stats.GeoMean(av), stats.GeoMean(dv))
}

// Article1Table3 prints the DSA area-overhead table. Area was measured
// by RTL synthesis in the paper, not simulated — the published numbers
// are carried through verbatim (see DESIGN.md substitutions).
func (s *Suite) Article1Table3(w io.Writer) {
	fmt.Fprintln(w, "== Article 1, Table 3 — Area overhead of DSA (published RTL numbers)")
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "", "cell (µm²)", "net (µm²)", "total (µm²)")
	fmt.Fprintf(w, "%-22s %12d %12d %12d\n", "ARM core", 391158, 219015, 610173)
	fmt.Fprintf(w, "%-22s %12d %12d %12d\n", "DSA logic", 8667, 4607, 13274)
	fmt.Fprintf(w, "%-22s %11.2f%% %11.2f%% %11.2f%%\n", "overhead", 2.22, 2.10, 2.18)
	fmt.Fprintf(w, "%-22s %12d %12d %12d\n", "ARM core + caches", 512912, 279801, 792713)
	fmt.Fprintf(w, "%-22s %12d %12d %12d\n", "DSA + caches", 53716, 28520, 82236)
	fmt.Fprintf(w, "%-22s %11.2f%% %11.2f%% %11.2f%%\n", "total overhead", 10.47, 10.19, 10.37)
}

// Article2Fig16 prints AutoVec vs Original DSA vs Extended DSA — the
// Article 2 headline: only the extended DSA covers conditional and
// dynamic-range loops.
func (s *Suite) Article2Fig16(w io.Writer) {
	fmt.Fprintln(w, "== Article 2, Fig. 16 — AutoVec vs Original DSA vs Extended DSA")
	fmt.Fprintln(w, "   (speedup over ARM Original Execution)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "benchmark", "autovec", "dsa-orig", "dsa-ext")
	var av, ov, ev []float64
	for _, name := range Article2Workloads {
		a := s.Speedup(name, ModeAutoVec)
		o := s.Speedup(name, ModeDSAOrig)
		e := s.Speedup(name, ModeDSAExt)
		av, ov, ev = append(av, a), append(ov, o), append(ev, e)
		fmt.Fprintf(w, "%-12s %11.2fx %11.2fx %11.2fx\n", name, a, o, e)
	}
	fmt.Fprintf(w, "%-12s %11.2fx %11.2fx %11.2fx   (paper: extended beats autovec by ~12%%)\n",
		"geomean", stats.GeoMean(av), stats.GeoMean(ov), stats.GeoMean(ev))
}

// DetectionLatency prints the DSA detection-latency table (Article 2
// Table 3 / Article 3 Table 2): the share of execution time the DSA
// spent analyzing, which runs in parallel with the core.
func (s *Suite) DetectionLatency(w io.Writer, mode Mode) {
	fmt.Fprintf(w, "== DSA Detection Latency (%s) — Article 2 Table 3 / Article 3 Table 2\n", mode)
	fmt.Fprintf(w, "%-12s %16s %16s %14s\n", "benchmark", "analysis ticks", "exec ticks", "share")
	for _, name := range Article3Workloads {
		r := s.Results[name][mode]
		if r == nil || r.DSA == nil {
			continue
		}
		share := r.DSA.DetectionShare(r.Ticks)
		fmt.Fprintf(w, "%-12s %16d %16d %13.2f%%\n", name, r.DSA.AnalysisTicks, r.Ticks, share*100)
	}
	fmt.Fprintln(w, "   (analysis runs in parallel with the ARM pipeline: no wall-clock cost)")
}

// Article3Fig7 prints the loop-type census the DSA observed per
// application.
func (s *Suite) Article3Fig7(w io.Writer) {
	fmt.Fprintln(w, "== Article 3, Fig. 7 — Percentage of loop types in the selected applications")
	kinds := []dsa.LoopKind{dsa.KindCount, dsa.KindFunction, dsa.KindNested,
		dsa.KindConditional, dsa.KindSentinel, dsa.KindDynamicRange, dsa.KindNonVectorizable}
	fmt.Fprintf(w, "%-12s", "benchmark")
	for _, k := range kinds {
		fmt.Fprintf(w, " %16s", k)
	}
	fmt.Fprintln(w)
	for _, name := range Article3Workloads {
		r := s.Results[name][ModeDSAExt]
		if r == nil || r.DSA == nil {
			continue
		}
		var total uint64
		for _, k := range kinds {
			total += r.DSA.ByKind[k]
		}
		fmt.Fprintf(w, "%-12s", name)
		for _, k := range kinds {
			pct := 0.0
			if total > 0 {
				pct = float64(r.DSA.ByKind[k]) / float64(total) * 100
			}
			fmt.Fprintf(w, " %15.1f%%", pct)
		}
		fmt.Fprintln(w)
	}
}

// Article3Fig8 prints the DATE headline figure: AutoVec vs Hand vs
// Extended DSA speedups over the ARM original execution.
func (s *Suite) Article3Fig8(w io.Writer) {
	fmt.Fprintln(w, "== Article 3, Fig. 8 — Performance improvements over ARM Original Execution")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "benchmark", "autovec", "hand-coded", "dsa-ext")
	var av, hv, ev []float64
	for _, name := range Article3Workloads {
		a := s.Speedup(name, ModeAutoVec)
		h := s.Speedup(name, ModeHand)
		e := s.Speedup(name, ModeDSAExt)
		av, hv, ev = append(av, a), append(hv, h), append(ev, e)
		fmt.Fprintf(w, "%-12s %11.2fx %11.2fx %11.2fx\n", name, a, h, e)
	}
	ga, gh, ge := stats.GeoMean(av), stats.GeoMean(hv), stats.GeoMean(ev)
	fmt.Fprintf(w, "%-12s %11.2fx %11.2fx %11.2fx\n", "geomean", ga, gh, ge)
	fmt.Fprintf(w, "   DSA over autovec: +%.0f%% (paper: +32%%); DSA over hand: +%.0f%% (paper: +26%%)\n",
		(ge/ga-1)*100, (ge/gh-1)*100)
}

// Article3Fig9 prints energy savings over the ARM original execution.
func (s *Suite) Article3Fig9(w io.Writer) {
	fmt.Fprintln(w, "== Article 3, Fig. 9 — Energy savings over ARM Original Execution")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "benchmark", "autovec", "hand-coded", "dsa-ext")
	var ev []float64
	for _, name := range Article3Workloads {
		a := s.EnergySavings(name, ModeAutoVec)
		h := s.EnergySavings(name, ModeHand)
		e := s.EnergySavings(name, ModeDSAExt)
		ev = append(ev, e)
		fmt.Fprintf(w, "%-12s %11.1f%% %11.1f%% %11.1f%%\n", name, a, h, e)
	}
	fmt.Fprintf(w, "%-12s %24s %12.1f%%   (paper: 45%% for DSA)\n", "mean", "", stats.Mean(ev))
}

// Article3Table3 prints the DSA energy share: how much of the total
// energy the detection logic itself consumed.
func (s *Suite) Article3Table3(w io.Writer) {
	fmt.Fprintln(w, "== Article 3, Table 3 — DSA energy consumption (share of run total)")
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "benchmark", "DSA (nJ)", "total (nJ)", "share")
	for _, name := range Article3Workloads {
		r := s.Results[name][ModeDSAExt]
		if r == nil {
			continue
		}
		share := 0.0
		if t := r.Energy.Total(); t > 0 {
			share = r.Energy.DSA / t * 100
		}
		fmt.Fprintf(w, "%-12s %14.1f %14.1f %9.2f%%\n", name, r.Energy.DSA, r.Energy.Total(), share)
	}
}

// InhibitorsTable prints the static compiler's Table 1 diagnostics per
// workload.
func (s *Suite) InhibitorsTable(w io.Writer) {
	fmt.Fprintln(w, "== Table 1 — Auto-vectorization inhibitors observed by the static compiler")
	for _, name := range Article3Workloads {
		r := s.Results[name][ModeAutoVec]
		if r == nil || r.Report == nil {
			continue
		}
		inh := r.Report.Inhibitors()
		keys := make([]string, 0, len(inh))
		for k := range inh {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "%-12s vectorized=%d", name, r.Report.VectorizedCount())
		for _, k := range keys {
			fmt.Fprintf(w, "  %s×%d", k, inh[k])
		}
		fmt.Fprintln(w)
	}
}

// TechniquesTable prints the qualitative comparison of dissertation
// Table 2 (Ch. 2).
func TechniquesTable(w io.Writer) {
	fmt.Fprintln(w, "== Dissertation Table 2 — Vectorization techniques comparison")
	fmt.Fprintf(w, "%-24s %-14s %-14s %-10s %-14s\n",
		"technique", "recompilation", "productivity", "analysis", "penalty")
	fmt.Fprintf(w, "%-24s %-14s %-14s %-10s %-14s\n",
		"hand-code programming", "yes", "affected", "static", "none")
	fmt.Fprintf(w, "%-24s %-14s %-14s %-10s %-14s\n",
		"auto-vectorization", "yes", "not affected", "static", "none")
	fmt.Fprintf(w, "%-24s %-14s %-14s %-10s %-14s\n",
		"just-in-time compiler", "no", "not affected", "dynamic", "monitor task")
	fmt.Fprintf(w, "%-24s %-14s %-14s %-10s %-14s\n",
		"DSA (this work)", "no", "not affected", "dynamic", "none")
}

// SystemsSetupTable prints the dissertation Table 4 configuration.
func SystemsSetupTable(w io.Writer) {
	fmt.Fprintln(w, "== Dissertation Table 4 — Systems setup")
	rows := [][2]string{
		{"Processor", "armlite model of gem5 O3CPU (ARMv7)"},
		{"Superscalar width", "2 wide"},
		{"CPU clock", "1 GHz (10 ticks/cycle)"},
		{"L1 cache", "64 kB, 4-way, LRU"},
		{"L2 cache", "512 kB, 8-way, LRU"},
		{"NEON parallelism", "type dependent, 128-bit wide"},
		{"NEON registers", "sixteen 128-bit (Q0–Q15)"},
		{"DSA cache", "8 kB"},
		{"Verification cache", "1 kB"},
		{"Array maps", "4 × 128-bit"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %s\n", r[0], r[1])
	}
}

// Summary prints the one-screen overview with the paper's headline
// comparisons.
func (s *Suite) Summary(w io.Writer) {
	fmt.Fprintln(w, "== Summary — speedups over ARM Original Execution")
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s | %s\n",
		"benchmark", "scalar", "autovec", "hand", "dsa-orig", "dsa-ext", "dsa-ext energy savings")
	var av, hv, ov, ev, en []float64
	for _, name := range s.Order {
		base := s.Results[name][ModeScalar]
		if base == nil {
			continue
		}
		a, h := s.Speedup(name, ModeAutoVec), s.Speedup(name, ModeHand)
		o, e := s.Speedup(name, ModeDSAOrig), s.Speedup(name, ModeDSAExt)
		sv := s.EnergySavings(name, ModeDSAExt)
		av, hv, ov, ev, en = append(av, a), append(hv, h), append(ov, o), append(ev, e), append(en, sv)
		fmt.Fprintf(w, "%-12s %10d %9.2fx %9.2fx %9.2fx %9.2fx | %6.1f%%\n",
			name, base.Ticks, a, h, o, e, sv)
	}
	fmt.Fprintf(w, "%-12s %10s %9.2fx %9.2fx %9.2fx %9.2fx | %6.1f%%\n",
		"geomean", "", stats.GeoMean(av), stats.GeoMean(hv), stats.GeoMean(ov), stats.GeoMean(ev), stats.Mean(en))
}

// WriteCSV emits the summary grid as CSV (one row per workload) for
// external plotting.
func (s *Suite) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "workload,scalar_ticks,autovec_speedup,hand_speedup,dsa_orig_speedup,dsa_ext_speedup,dsa_ext_energy_savings_pct")
	for _, name := range s.Order {
		base := s.Results[name][ModeScalar]
		if base == nil {
			continue
		}
		fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.2f\n",
			name, base.Ticks,
			s.Speedup(name, ModeAutoVec),
			s.Speedup(name, ModeHand),
			s.Speedup(name, ModeDSAOrig),
			s.Speedup(name, ModeDSAExt),
			s.EnergySavings(name, ModeDSAExt))
	}
}
