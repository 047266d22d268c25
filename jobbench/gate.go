package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// goldenPath is the checked-in reference for every built-in workload
// under every mode, relative to the repository root. The benchmark only
// reads it.
const goldenPath = "internal/experiments/testdata/golden_digests.json"

// goldenMode maps a benchmark configuration to its golden mode name.
var goldenMode = map[string]string{
	"scalar":   "arm-original",
	"original": "neon-dsa-original",
	"extended": "neon-dsa-extended",
}

// outcome is what the gate compares: the final memory digest and the
// simulated time and retired steps of one run.
type outcome struct {
	digest uint64
	ticks  int64
	steps  uint64
}

// loadGoldens reads the reference outcomes of the built-ins, keyed by
// op key ("mm_32x32/extended").
func loadGoldens(path string) (map[string]outcome, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Goldens []struct {
			Workload  string `json:"workload"`
			Mode      string `json:"mode"`
			MemDigest string `json:"mem_digest"`
			Ticks     int64  `json:"ticks"`
			Steps     uint64 `json:"steps"`
		} `json:"goldens"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]outcome{}
	for _, g := range f.Goldens {
		for cfg, mode := range goldenMode {
			if g.Mode != mode {
				continue
			}
			d, err := strconv.ParseUint(g.MemDigest, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %s/%s digest: %w", path, g.Workload, g.Mode, err)
			}
			out[op{input: g.Workload, config: cfg}.key()] = outcome{digest: d, ticks: g.Ticks, steps: g.Steps}
		}
	}
	return out, nil
}

// gate checks every job's outcome. A built-in must match its golden
// digest, ticks and steps exactly. A generated source has no golden,
// so every run of it must agree: one digest across modes and repeats,
// and one ticks/steps pair per mode across repeats.
type gate struct {
	mu     sync.Mutex
	want   map[string]outcome // op key → expected outcome
	digest map[string]uint64  // generated input → first digest seen
}

func newGate(goldens map[string]outcome) *gate {
	want := make(map[string]outcome, len(goldens))
	for k, v := range goldens {
		want[k] = v
	}
	return &gate{want: want, digest: map[string]uint64{}}
}

// check reports a mismatch as an error. generated marks inputs with no
// golden entry.
func (g *gate) check(o op, got outcome, generated bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	want, ok := g.want[o.key()]
	if !ok {
		if !generated {
			return fmt.Errorf("%s: no golden entry", o.key())
		}
		g.want[o.key()] = got
		want = got
	}
	if generated {
		if d, seen := g.digest[o.input]; !seen {
			g.digest[o.input] = got.digest
		} else if d != got.digest {
			return fmt.Errorf("%s: digest %016x, other runs of %s gave %016x", o.key(), got.digest, o.input, d)
		}
	}
	if got != want {
		return fmt.Errorf("%s: got digest %016x ticks %d steps %d, want %016x ticks %d steps %d",
			o.key(), got.digest, got.ticks, got.steps, want.digest, want.ticks, want.steps)
	}
	return nil
}

// scalarSteps returns the scalar-mode retired steps of input, the
// common work measure of every mode; ok is false until known.
func (g *gate) scalarSteps(input string) (uint64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	o, ok := g.want[op{input: input, config: "scalar"}.key()]
	return o.steps, ok
}
