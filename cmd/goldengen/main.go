// Command goldengen captures the interpreter's observable behaviour —
// memory digest, tick count, retired-step count and DSA fallback
// attribution — for every workload under every execution mode, as a
// JSON golden file. The predecode differential test replays the suite
// against this file, so the goldens pin the semantics of the
// interpreter that generated them.
//
// Regenerate only when an intentional semantic change is made (and say
// so in the commit): `go run ./cmd/goldengen -out internal/experiments/testdata/golden_digests.json`
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/experiments"
	"repro/internal/vectorize"
	"repro/internal/workloads"
)

// DSAStats is the detection-engine accounting pinned for dsa modes
// (schema v2): the watch-path overhaul must replay every one of these
// counters exactly, so memoized fast paths cannot silently skip work
// the slow path would have charged.
type DSAStats struct {
	AnalysisTicks    int64  `json:"analysis_ticks"`
	StateTransitions uint64 `json:"state_transitions"`
	LoopsDetected    uint64 `json:"loops_detected"`
	DSACacheAccesses uint64 `json:"dsa_cache_accesses"`
	DSACacheHits     uint64 `json:"dsa_cache_hits"`
	VCacheAccesses   uint64 `json:"vcache_accesses"`
	CIDPCompares     uint64 `json:"cidp_compares"`
	ArrayMapAccesses uint64 `json:"array_map_accesses"`
	Takeovers        uint64 `json:"takeovers"`
	VectorizedIters  uint64 `json:"vectorized_iters"`
	LeftoverElements uint64 `json:"leftover_elements"`
	OverheadTicks    int64  `json:"overhead_ticks"`
}

// Golden is one workload/mode observation.
type Golden struct {
	Workload        string            `json:"workload"`
	Mode            string            `json:"mode"`
	MemDigest       string            `json:"mem_digest"` // mem.Memory.Sum64, hex
	Ticks           int64             `json:"ticks"`
	Steps           uint64            `json:"steps"`
	FallbackReasons map[string]uint64 `json:"fallback_reasons,omitempty"`
	DSA             *DSAStats         `json:"dsa,omitempty"` // dsa modes only
}

// File is the golden file layout.
type File struct {
	Schema  string   `json:"schema"`
	Goldens []Golden `json:"goldens"`
}

var modes = []experiments.Mode{
	experiments.ModeScalar, experiments.ModeAutoVec, experiments.ModeHand,
	experiments.ModeDSAOrig, experiments.ModeDSAExt,
}

func runOne(w *workloads.Workload, mode experiments.Mode) (*Golden, error) {
	g := &Golden{Workload: w.Name, Mode: string(mode)}
	var m *cpu.Machine
	switch mode {
	case experiments.ModeScalar:
		m = cpu.MustNew(w.Scalar(), cpu.DefaultConfig())
	case experiments.ModeAutoVec:
		prog, _, err := vectorize.AutoVectorize(w.Scalar(), vectorize.Options{NoAlias: w.NoAlias})
		if err != nil {
			return nil, err
		}
		m = cpu.MustNew(prog, cpu.DefaultConfig())
	case experiments.ModeHand:
		prog := w.Scalar()
		if w.Hand != nil {
			prog = w.Hand()
		}
		m = cpu.MustNew(prog, cpu.DefaultConfig())
	case experiments.ModeDSAOrig, experiments.ModeDSAExt:
		cfg := dsa.DefaultConfig()
		if mode == experiments.ModeDSAOrig {
			cfg = dsa.OriginalConfig()
		}
		s, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), cfg)
		if err != nil {
			return nil, err
		}
		w.Setup(s.M)
		if err := s.Run(); err != nil {
			return nil, err
		}
		if err := w.Check(s.M); err != nil {
			return nil, err
		}
		st := s.Stats().Snapshot()
		g.FallbackReasons = st.FallbackReasons
		g.DSA = &DSAStats{
			AnalysisTicks:    st.AnalysisTicks,
			StateTransitions: st.StateTransitions,
			LoopsDetected:    st.LoopsDetected,
			DSACacheAccesses: st.DSACacheAccesses,
			DSACacheHits:     st.DSACacheHits,
			VCacheAccesses:   st.VCacheAccesses,
			CIDPCompares:     st.CIDPCompares,
			ArrayMapAccesses: st.ArrayMapAccesses,
			Takeovers:        st.Takeovers,
			VectorizedIters:  st.VectorizedIters,
			LeftoverElements: st.LeftoverElements,
			OverheadTicks:    st.OverheadTicks,
		}
		g.MemDigest = fmt.Sprintf("%016x", s.M.Mem.Sum64())
		g.Ticks = s.M.Ticks
		g.Steps = s.M.Steps
		return g, nil
	}
	w.Setup(m)
	if err := m.Run(nil); err != nil {
		return nil, err
	}
	if err := w.Check(m); err != nil {
		return nil, err
	}
	g.MemDigest = fmt.Sprintf("%016x", m.Mem.Sum64())
	g.Ticks = m.Ticks
	g.Steps = m.Steps
	return g, nil
}

func main() {
	out := flag.String("out", "internal/experiments/testdata/golden_digests.json", "output path")
	flag.Parse()
	f := File{Schema: "golden_digests/v3"}
	for _, w := range workloads.All() {
		for _, mode := range modes {
			g, err := runOne(w, mode)
			if err != nil {
				fmt.Fprintf(os.Stderr, "goldengen: %s/%s: %v\n", w.Name, mode, err)
				os.Exit(1)
			}
			f.Goldens = append(f.Goldens, *g)
		}
	}
	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("goldengen: wrote %d goldens to %s\n", len(f.Goldens), *out)
}
