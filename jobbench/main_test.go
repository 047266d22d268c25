package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// probeEnv carries a set-up probe's arguments to a copy of the test
// binary, which then acts as the probe process.
const probeEnv = "JOBBENCH_READY_PROBE"

// The benchmark reads the golden file relative to the repository root.
func TestMain(m *testing.M) {
	if args := os.Getenv(probeEnv); args != "" {
		if err := readyProbe(strings.Split(args, "\n"), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func goldens(t *testing.T) map[string]outcome {
	t.Helper()
	g, err := loadGoldens(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shortRun runs one workload for a few jobs.
func shortRun(t *testing.T, workload string, trace bool, minJobs int, g map[string]outcome) (*result, string) {
	t.Helper()
	var report bytes.Buffer
	res, err := run(runConfig{
		workload: workload,
		seed:     7,
		window:   200 * time.Millisecond,
		trace:    trace,
		minJobs:  minJobs,
		rounds:   2,
		goldens:  g,
		stateDir: t.TempDir(),
		traceDir: t.TempDir(),
		report:   &report,
		probe: func(args ...string) *exec.Cmd {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), probeEnv+"="+strings.Join(args, "\n"))
			return cmd
		},
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, report.String())
	}
	return res, report.String()
}

// TestShortRuns runs every workload untraced and traced for a few jobs
// and checks that the printed JSON carries every metric with its unit.
func TestShortRuns(t *testing.T) {
	g := goldens(t)
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, report := shortRun(t, def.name, trace, 4, g)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					def.name, trace, res.Correct, res.Attempted, res.Failed, report)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var printed struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(b, &printed); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(printed.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", def.name, trace, len(printed.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := printed.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						def.name, trace, d.name, got, ok, d.unit)
				}
			}
		}
	}
}

// TestGateCatchesCorruptDigest corrupts one expected digest and checks
// that a run which executes that job reports it as failed.
func TestGateCatchesCorruptDigest(t *testing.T) {
	g := goldens(t)
	key := op{input: "rgb_gray", config: "extended"}.key()
	want, ok := g[key]
	if !ok {
		t.Fatalf("no golden for %s", key)
	}
	want.digest ^= 1
	g[key] = want
	// One full cycle of the suite runs every built-in × config.
	res, report := shortRun(t, "suite-batch", false, len(suiteOps()), g)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest for %s went unreported: correct=%v failed=%d\n%s", key, res.Correct, res.Failed, report)
	}
	if !strings.Contains(report, "FAILED "+key) {
		t.Errorf("report does not name the failing job %s:\n%s", key, report)
	}
}

// TestGateGeneratedAgreement: a generated source has no golden, so the
// gate requires its runs to agree across modes and repeats.
func TestGateGeneratedAgreement(t *testing.T) {
	g := newGate(nil)
	scalar := op{input: "gen0", config: "scalar"}
	ext := op{input: "gen0", config: "extended"}
	if err := g.check(scalar, outcome{digest: 1, ticks: 10, steps: 5}, true); err != nil {
		t.Fatal(err)
	}
	if err := g.check(ext, outcome{digest: 1, ticks: 7, steps: 3}, true); err != nil {
		t.Fatal(err)
	}
	if err := g.check(ext, outcome{digest: 2, ticks: 7, steps: 3}, true); err == nil {
		t.Error("digest differing across modes passed the gate")
	}
	if err := g.check(scalar, outcome{digest: 1, ticks: 11, steps: 5}, true); err == nil {
		t.Error("ticks differing across repeats passed the gate")
	}
	if n, ok := g.scalarSteps("gen0"); !ok || n != 5 {
		t.Errorf("scalarSteps(gen0) = %d, %v; want 5, true", n, ok)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metric
// catalogue this program implements.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadDefs[i].name || w.Why == "" {
			t.Errorf("workload %d = %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadDefs[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it should move", d.name)
		}
	}
}
