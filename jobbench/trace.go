package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage vocabulary. Spans of the runner stage walk carry exactly these
// names, the words the ROADMAP uses for a job's stages, so the later
// per-job phase timeline and phase histogram can reuse them. Children
// of a stage that isolate one layer's call are named "<stage>.<part>".
const (
	stageConstruct      = "construct"
	stageSetup          = "setup"
	stageRun            = "run"
	stageCheck          = "check"
	stageDigest         = "digest"
	stageCheckpointSave = "checkpoint-save"
	stageRestore        = "restore"
	stageResultEncode   = "result-encode"

	spanParse = stageConstruct + ".parse"      // asm.Parse / Workload.Scalar
	spanWrite = stageCheckpointSave + ".write" // snapshot.Writer.WriteFile
	spanJob   = "job"                          // root of one walked job
	spanDo    = "pool-do"                      // one timed runner.Pool.Do
)

// stages lists the stage names in the order a job passes them.
var stages = []string{stageConstruct, stageSetup, stageRun, stageCheckpointSave,
	stageCheck, stageDigest, stageResultEncode, stageRestore}

// span is one timed call: a name, its interval relative to the
// tracer's start, the span that caused it, and the job it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(job, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanStats is the self time of every span of one name.
type spanStats struct {
	count int
	self  time.Duration // summed self time
	// stage is the summed self time counting the span's own parts
	// (children named "<name>.<part>") as its own: a stage's share of a
	// job, with nested stages (checkpoint-save inside run) excluded.
	stage time.Duration
}

func (s spanStats) meanSelfMS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / 1e6
}

// byName sums self time per span name. A span's self time is its
// duration minus the part of that interval its children cover;
// children of one span never overlap here (each job's stages run on
// one goroutine), so that part is their summed duration.
func (t *tracer) byName() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	other := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		child[s.Parent] += s.dur()
		if !strings.HasPrefix(s.Name, t.spans[s.Parent-1].Name+".") {
			other[s.Parent] += s.dur()
		}
	}
	out := map[string]spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.count++
		st.self += s.dur() - child[s.ID]
		st.stage += s.dur() - other[s.ID]
		out[s.Name] = st
	}
	return out
}

// stageShares returns each stage's share of the summed stage time, in
// stage order, for the report; nil when no job was walked stage by
// stage.
func stageShares(by map[string]spanStats) (names []string, pct []float64) {
	if by[stageConstruct].count == 0 {
		return nil, nil
	}
	var sum time.Duration
	for _, n := range stages {
		sum += by[n].stage
	}
	if sum == 0 {
		return nil, nil
	}
	for _, n := range stages {
		names = append(names, n)
		pct = append(pct, 100*float64(by[n].stage)/float64(sum))
	}
	return names, pct
}

// write dumps the spans as JSON, sorted by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
