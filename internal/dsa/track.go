package dsa

import (
	"repro/internal/armlite"
)

// LoopKind classifies a detected loop — the taxonomy of Fig. 11 and
// the loop-type census of Article 3 Fig. 7.
type LoopKind int

// Loop kinds.
const (
	KindUnknown      LoopKind = iota
	KindCount                 // fixed range known at the loop entry
	KindFunction              // count loop containing a function call
	KindNested                // outer loop containing inner loops
	KindConditional           // loop with conditional code regions
	KindSentinel              // stop condition computed inside the body
	KindDynamicRange          // range recomputed between executions (type A)
	KindNonVectorizable
)

func (k LoopKind) String() string {
	switch k {
	case KindCount:
		return "count"
	case KindFunction:
		return "function"
	case KindNested:
		return "nested"
	case KindConditional:
		return "conditional"
	case KindSentinel:
		return "sentinel"
	case KindDynamicRange:
		return "dynamic-range"
	case KindNonVectorizable:
		return "non-vectorizable"
	default:
		return "unknown"
	}
}

// stage is the per-loop position in the DSA state machine (Fig. 12).
type stage int

const (
	stDetected  stage = iota // loop seen once; collecting iteration 2
	stCollected              // iteration 2 captured; analyzing iteration 3
	stMapping                // conditional loops: discovering conditions
	stDecided                // verdict reached (takeover requested or rejected)
)

func (s stage) String() string {
	switch s {
	case stDetected:
		return "loop-detection"
	case stCollected:
		return "data-collection"
	case stMapping:
		return "mapping"
	default:
		return "decided"
	}
}

// StepRec is one retired instruction inside a tracked iteration.
// Instr aliases the machine's program (see cpu.Record): the program
// is immutable while a machine runs, so retained records stay valid
// across iterations and takeovers.
type StepRec struct {
	PC       int
	Instr    *armlite.Instr
	Taken    bool
	HasMem   bool
	MemAddr  uint32
	MemSize  int
	MemStore bool
}

// maxIterRecords bounds how many instructions per iteration the DSA
// hardware can buffer; longer iterations are not analyzable.
const maxIterRecords = 8192

// memKey identifies one memory access site within an iteration:
// instruction address plus occurrence number (a function called twice
// per iteration executes the same load PC twice).
type memKey struct {
	pc  int
	occ int
}

// memObs is an address observation for a memory site at an iteration.
type memObs struct {
	iter int
	addr uint32
}

// pathInfo captures one control path through a conditional loop's
// body: the set of executed PCs (its signature) and the first two
// iterations observed taking it.
type pathInfo struct {
	sig      string // canonical signature of executed body PCs
	pcs      map[int]bool
	firstIt  int
	secondIt int
	recsA    []StepRec // records of the first observation
	memA     map[memKey]uint32
	memB     map[memKey]uint32
	analyzed bool
}

// track is the DSA's per-loop analysis state.
type track struct {
	id       int // loop ID = start PC (the back-branch target)
	branchPC int // the back-branch instruction address
	iter     int // completed iterations
	stage    stage
	kind     LoopKind

	inIteration bool
	callDepth   int // >0 while inside a function called from the body
	sawCall     bool
	hasInnerVec bool // an inner loop was vectorized inside this body
	innerLoops  bool // back-branches of other loops observed inside
	tooBig      bool
	exited      bool
	rejected    string // non-empty: rejection reason

	cur []StepRec // current iteration's records

	// Saved iterations for simple analysis (2 and 3).
	it2, it3 []StepRec

	// Register file snapshots at iteration ends.
	snapPrev, snapCur [armlite.NumRegs]uint32
	haveSnapPrev      bool

	// Per-register deltas between consecutive iteration ends; deltaOK
	// marks registers whose delta was identical across the observed
	// iterations (induction candidates).
	delta   [armlite.NumRegs]int64
	deltaOK [armlite.NumRegs]bool

	// Memory observations by site. memFree recycles the per-site
	// observation slices across reuses of a pooled track: clear(t.mem)
	// in reset would otherwise drop the slice backing with the map
	// entries, making every re-tracked loop (e.g. an outer loop
	// re-marked nested on each entry) allocate per site per entry.
	mem     map[memKey][]memObs
	memFree [][]memObs

	// Conditional-loop discovery.
	condSeen  bool
	paths     map[string]*pathInfo
	coverage  map[int]bool // body PCs executed by any iteration
	exitSeen  bool         // mid-body exit branch observed (sentinel hint)
	exitPC    int
	exitTaken bool

	// occ counts per-PC memory-site occurrences within the current
	// iteration (reset every iteration).
	occ map[int]int

	// trip is the derived range mechanism.
	trip *TripInfo

	// analysis is the final artifact on success.
	analysis *Analysis
}

func newTrack(id, branchPC int) *track {
	return &track{
		id:       id,
		branchPC: branchPC,
		iter:     1, // created at the end of the first iteration
		stage:    stDetected,
		mem:      make(map[memKey][]memObs),
		paths:    make(map[string]*pathInfo),
		coverage: make(map[int]bool),
	}
}

// reset reinitializes a pooled track for a new loop, retaining map and
// slice backing storage. Everything a decision could retain (analysis
// artifacts, path records) is copied out before a track is decided, so
// reuse cannot alias live state — see the engine's free list.
func (t *track) reset(id, branchPC int) {
	memFree := t.memFree
	for k, v := range t.mem {
		if cap(v) > 0 {
			memFree = append(memFree, v[:0])
		}
		delete(t.mem, k)
	}
	clear(t.paths)
	clear(t.coverage)
	if t.occ != nil {
		clear(t.occ)
	}
	mem, paths, coverage, occ := t.mem, t.paths, t.coverage, t.occ
	cur, it2, it3 := t.cur[:0], t.it2[:0], t.it3[:0]
	*t = track{
		id:       id,
		branchPC: branchPC,
		iter:     1,
		stage:    stDetected,
		mem:      mem,
		memFree:  memFree,
		paths:    paths,
		coverage: coverage,
		occ:      occ,
		cur:      cur,
		it2:      it2,
		it3:      it3,
	}
}

// bodyLen returns the static body size in instructions.
func (t *track) bodyLen() int { return t.branchPC - t.id + 1 }

// inBody reports whether pc lies in the loop's static body range.
func (t *track) inBody(pc int) bool { return pc >= t.id && pc <= t.branchPC }

// reject marks the loop non-vectorizable.
func (t *track) reject(reason string) {
	if t.rejected == "" {
		t.rejected = reason
	}
	t.kind = KindNonVectorizable
	t.stage = stDecided
}

// beginIteration starts collecting a new iteration.
func (t *track) beginIteration() {
	t.inIteration = true
	t.cur = t.cur[:0]
	t.callDepth = 0
}

// observe appends one record to the active iteration.
func (t *track) observe(r *StepRec, occCount map[int]int) {
	if !t.inIteration || t.stage == stDecided {
		return
	}
	if len(t.cur) >= maxIterRecords {
		t.tooBig = true
		t.reject("iteration-too-long")
		return
	}
	t.cur = append(t.cur, *r)
	if t.inBody(r.PC) {
		t.coverage[r.PC] = true
	}
	// Function-call bookkeeping: a BL leaving the body opens a call.
	switch r.Instr.Op {
	case armlite.OpBL:
		if r.Taken && !t.inBody(r.Instr.Target) {
			t.callDepth++
			t.sawCall = true
		}
	case armlite.OpBX:
		if t.callDepth > 0 {
			t.callDepth--
		}
	case armlite.OpB:
		if r.Taken && !t.inBody(r.Instr.Target) && t.callDepth == 0 && r.PC != t.branchPC {
			// Mid-body exit (sentinel break).
			t.exitSeen = true
			t.exitPC = r.PC
			t.exitTaken = true
		} else if !r.Taken && r.Instr.Cond != armlite.CondAL &&
			t.inBody(r.PC) && !t.inBody(r.Instr.Target) && t.callDepth == 0 && r.PC != t.branchPC {
			// A not-taken branch whose target leaves the body is a
			// sentinel exit check.
			t.exitSeen = true
			t.exitPC = r.PC
		} else if r.Taken && t.inBody(r.Instr.Target) && r.Instr.Cond != armlite.CondAL &&
			r.PC != t.branchPC && r.Instr.Target > r.PC {
			// Conditional forward branch within the body: conditional
			// code (an "instruction addressing gap", §4.6.4.1).
			t.condSeen = true
		} else if !r.Taken && r.Instr.Cond != armlite.CondAL &&
			t.inBody(r.PC) && t.inBody(r.Instr.Target) && r.PC != t.branchPC && r.Instr.Target > r.PC {
			// Even when not taken, a forward conditional branch marks
			// a potential condition region.
			t.condSeen = true
		}
	}
	// Memory observation. New sites take a recycled slice from the
	// pooled-track free list before falling back to append's growth.
	if r.HasMem {
		occ := occCount[r.PC]
		occCount[r.PC] = occ + 1
		k := memKey{pc: r.PC, occ: occ}
		s, ok := t.mem[k]
		if !ok {
			if n := len(t.memFree); n > 0 {
				s = t.memFree[n-1]
				t.memFree = t.memFree[:n-1]
			}
		}
		t.mem[k] = append(s, memObs{iter: t.iter + 1, addr: r.MemAddr})
	}
}

// signature canonicalizes the set of body PCs executed this iteration.
func (t *track) signature() (string, map[int]bool) {
	pcs := make(map[int]bool)
	buf := make([]byte, 0, t.bodyLen())
	for pc := t.id; pc <= t.branchPC; pc++ {
		hit := false
		for _, r := range t.cur {
			if r.PC == pc {
				hit = true
				break
			}
		}
		if hit {
			pcs[pc] = true
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	return string(buf), pcs
}

// covered reports whether every body PC has been executed by some
// observed iteration — the paper's "no pending conditions" test.
func (t *track) coveredAll() bool {
	for pc := t.id; pc <= t.branchPC; pc++ {
		if !t.coverage[pc] {
			return false
		}
	}
	return true
}
