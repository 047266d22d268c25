// Package dsa implements the Dynamic SIMD Assembler — the
// dissertation's contribution: a hardware engine coupled to the scalar
// core that watches the retired-instruction stream, detects
// vectorizable loops at run time through a six-state machine
// (Loop Detection → Data Collection → Dependency Analysis → Store
// ID/Execution, plus Mapping and Speculative Execution for conditional
// and sentinel loops), builds NEON SIMD instructions for them, and
// switches execution onto the vector engine.
//
// The package is split along the paper's structure:
//
//	config.go   — configuration, latency model, hardware caches
//	track.go    — per-loop state machines and iteration collection
//	cidp.go     — cross-iteration dependency prediction (Eq. 4.1–4.5)
//	extract.go  — vectorizable-operation extraction (Fig. 25 analysis)
//	plan.go     — SIMD instruction generation and leftover strategies
//	engine.go   — the observer: drives the state machines
//	system.go   — couples a cpu.Machine with the engine; performs
//	              takeovers, conditional mapping/speculation and
//	              sentinel speculative execution
package dsa

import "repro/internal/armlite"

// LeftoverPolicy selects how iterations that do not fill a full vector
// are executed (dissertation §4.8).
type LeftoverPolicy int

// Leftover policies.
const (
	// LeftoverAuto uses Overlapping when legal (outputs disjoint from
	// inputs, at least one full vector) and Single Elements otherwise.
	LeftoverAuto LeftoverPolicy = iota
	// LeftoverSingle processes remaining elements one lane at a time.
	LeftoverSingle
	// LeftoverOverlap re-processes trailing elements so the final
	// vector operation is full-width.
	LeftoverOverlap
	// LeftoverLarger rounds the range up to the next vector multiple,
	// touching (pre-padded) memory past the logical end.
	LeftoverLarger
	// LeftoverScalar leaves the remainder to the ARM core.
	LeftoverScalar
)

func (p LeftoverPolicy) String() string {
	switch p {
	case LeftoverSingle:
		return "single-elements"
	case LeftoverOverlap:
		return "overlapping"
	case LeftoverLarger:
		return "larger-arrays"
	case LeftoverScalar:
		return "scalar"
	default:
		return "auto"
	}
}

// Latencies holds the DSA timing constants in ticks (10 = one core
// cycle), covering every latency the methodology chapter lists for the
// Analysis and Execution stages.
type Latencies struct {
	// Analysis-side (tracked separately; the DSA analyzes in parallel
	// with the core, so these do not extend wall-clock time — they
	// feed the "DSA Latency" tables).
	ObservePerInstr   int64 // tap one retired instruction
	DSACacheAccess    int64
	VCacheAccess      int64
	ArrayMapAccess    int64
	CIDPCompare       int64
	PartialReanalysis int64 // extra pass per partial-vectorization window

	// Execution-side (added to wall-clock time at takeover).
	PipelineFlush   int64 // drain the O3 pipeline before SIMD issue
	PlanSetup       int64 // route generated statements to the NEON queue
	LeftoverElement int64 // per single-element lane insert/extract
}

// DefaultLatencies returns the model used by all experiments.
func DefaultLatencies() Latencies {
	return Latencies{
		ObservePerInstr:   1,
		DSACacheAccess:    20, // 2 cycles
		VCacheAccess:      10, // 1 cycle
		ArrayMapAccess:    10,
		CIDPCompare:       10,
		PartialReanalysis: 40,
		PipelineFlush:     100, // 10 cycles: drain in-flight instructions
		PlanSetup:         40,
		LeftoverElement:   10,
	}
}

// Config parameterizes the DSA hardware, defaulting to the
// dissertation's setup: 8 KB DSA cache, 1 KB verification cache, four
// 128-bit array maps.
type Config struct {
	DSACacheBytes int
	VCacheBytes   int
	ArrayMaps     int
	Leftover      LeftoverPolicy
	Latencies     Latencies

	// Feature switches (the "Original DSA" of Article 1 vs the
	// "Extended DSA" of Articles 2/3; also used by ablations).
	EnableConditional  bool
	EnableSentinel     bool
	EnableDynamicRange bool
	EnablePartial      bool
	// EnableGuardVec selects the full-speculation conditional mode
	// (guard compare evaluated as a SIMD mask). When false the DSA
	// uses only the per-iteration mapped mode of Fig. 21/22 — the
	// conservative reading of the paper; see DESIGN.md.
	EnableGuardVec bool

	// TakeoverStepBudget bounds the scalar steps (and fetch skips) a
	// single takeover's in-loop driver may spend inside the sentinel
	// and conditional execution loops before the takeover is rolled
	// back and the loop re-run scalar (0 = DefaultTakeoverStepBudget).
	// A corrupted action-PC map or a wedged stop slice hits this
	// budget instead of burning the machine's global MaxSteps.
	TakeoverStepBudget uint64

	// Verify enables the differential oracle: every committed takeover
	// is shadowed by a scalar replay and diffed (see VerifyConfig).
	Verify VerifyConfig

	// Fault configures the fault-injection harness (FaultNone in
	// production; see faultinject.go).
	Fault FaultConfig
}

// DefaultTakeoverStepBudget is the per-takeover scalar step budget
// used when Config.TakeoverStepBudget is zero — far above any real
// loop's residual scalar work, far below the global MaxSteps guard.
const DefaultTakeoverStepBudget = 1 << 22

// DefaultConfig returns the Extended DSA (all mechanisms on).
func DefaultConfig() Config {
	return Config{
		DSACacheBytes:      8 << 10,
		VCacheBytes:        1 << 10,
		ArrayMaps:          4,
		Leftover:           LeftoverAuto,
		Latencies:          DefaultLatencies(),
		EnableConditional:  true,
		EnableSentinel:     true,
		EnableDynamicRange: true,
		EnablePartial:      true,
		EnableGuardVec:     true,
	}
}

// OriginalConfig returns the Article 1 DSA: count, function and
// inner/outer loops only.
func OriginalConfig() Config {
	c := DefaultConfig()
	c.EnableConditional = false
	c.EnableSentinel = false
	c.EnableDynamicRange = false
	c.EnablePartial = false
	return c
}

// dsaCacheEntrySize is the modelled size of one DSA cache entry in
// bytes: loop ID, size, mechanism descriptor and the generated SIMD
// statements.
const dsaCacheEntrySize = 64

// vcacheEntrySize is the modelled size of one verification-cache
// entry: one data-memory address plus tag bits.
const vcacheEntrySize = 8

// Stats aggregates DSA activity for the latency tables and the energy
// model.
type Stats struct {
	// Analysis accounting.
	AnalysisTicks    int64 // time spent in probing-mode analysis
	StateTransitions uint64
	Observations     uint64
	DSACacheAccesses uint64
	DSACacheHits     uint64
	VCacheAccesses   uint64
	VCacheOverflows  uint64
	ArrayMapAccesses uint64
	CIDPCompares     uint64

	// Execution accounting.
	Takeovers        uint64 // times execution switched to the NEON engine
	VectorizedIters  uint64 // loop iterations executed as SIMD lanes
	LeftoverElements uint64
	OverheadTicks    int64 // wall-clock cost of switching (flush+setup)

	// Classification census (Fig. 7 of Article 3).
	LoopsDetected   uint64
	ByKind          map[LoopKind]uint64
	RejectedReasons map[string]uint64

	// Robustness accounting (guarded takeovers).
	Fallbacks         uint64            // takeovers unwound and re-run scalar
	FallbackReasons   map[string]uint64 // fallback cause → count
	VerifiedTakeovers uint64            // takeovers cross-checked by the oracle
	Divergences       uint64            // oracle mismatches detected
	DroppedRequests   uint64            // takeover offers discarded mid-verification
}

func newStats() *Stats {
	return &Stats{
		ByKind:          make(map[LoopKind]uint64),
		RejectedReasons: make(map[string]uint64),
		FallbackReasons: make(map[string]uint64),
	}
}

// DSACache models the 8 KB loop cache: loop ID (start PC) → verified
// loop information, LRU replacement.
type DSACache struct {
	capacity int // entries
	entries  map[int]*CachedLoop
	order    []int // LRU order, most recent first
}

// CachedLoop is one DSA cache entry — the information the paper stores
// for a verified loop (§4.6.4.1): loop ID, size, condition IDs, plus
// the analysis artifacts needed to regenerate SIMD statements.
type CachedLoop struct {
	LoopID       int
	Kind         LoopKind
	Vectorizable bool
	Reason       string // rejection reason when !Vectorizable
	Analysis     *Analysis
	// SentinelRange is the speculative range learned from the last
	// execution (sentinel loops only).
	SentinelRange int
	// LimitValue is the trip-limit register value the analysis was
	// made under; a differing value on re-entry marks the loop as a
	// dynamic-range (type A) loop and forces re-analysis.
	LimitValue uint32
	LimitIsImm bool

	// memo caches the last PredictCID verdict for steady-state
	// re-entries (see memo.go). Transient: snapshots do not persist it
	// and a restored entry simply recomputes on its first hit.
	memo cidMemo
}

// NewDSACache builds the cache from a byte budget.
func NewDSACache(bytes int) *DSACache {
	n := bytes / dsaCacheEntrySize
	if n < 1 {
		n = 1
	}
	return &DSACache{capacity: n, entries: make(map[int]*CachedLoop)}
}

// Lookup returns the entry for loopID and refreshes its LRU position.
func (c *DSACache) Lookup(loopID int) (*CachedLoop, bool) {
	e, ok := c.entries[loopID]
	if ok {
		c.touch(loopID)
	}
	return e, ok
}

// Insert stores an entry, evicting the LRU victim if full.
func (c *DSACache) Insert(e *CachedLoop) {
	if _, exists := c.entries[e.LoopID]; !exists && len(c.entries) >= c.capacity {
		victim := c.order[len(c.order)-1]
		c.order = c.order[:len(c.order)-1]
		delete(c.entries, victim)
	}
	c.entries[e.LoopID] = e
	c.touch(e.LoopID)
}

// Len returns the number of cached loops.
func (c *DSACache) Len() int { return len(c.entries) }

func (c *DSACache) touch(loopID int) {
	for i, id := range c.order {
		if id == loopID {
			copy(c.order[1:i+1], c.order[:i])
			c.order[0] = loopID
			return
		}
	}
	c.order = append(c.order, 0)
	copy(c.order[1:], c.order)
	c.order[0] = loopID
}

// VCache models the 1 KB verification cache holding the data-memory
// addresses of one iteration under analysis.
type VCache struct {
	capacity int
	addrs    []vcEntry
}

type vcEntry struct {
	pc    int // memory instruction address
	addr  uint32
	store bool
	size  int
	dt    armlite.DataType
}

// NewVCache builds the cache from a byte budget.
func NewVCache(bytes int) *VCache {
	n := bytes / vcacheEntrySize
	if n < 1 {
		n = 1
	}
	return &VCache{capacity: n}
}

// Reset clears the cache for a new iteration.
func (v *VCache) Reset() { v.addrs = v.addrs[:0] }

// Record stores one access; it reports false on capacity overflow
// (the loop touches more addresses per iteration than the hardware
// can verify — such loops are classified non-vectorizable).
func (v *VCache) Record(pc int, addr uint32, size int, store bool, dt armlite.DataType) bool {
	if len(v.addrs) >= v.capacity {
		return false
	}
	v.addrs = append(v.addrs, vcEntry{pc: pc, addr: addr, store: store, size: size, dt: dt})
	return true
}

// Entries returns the recorded accesses.
func (v *VCache) Entries() []vcEntry { return v.addrs }

// Capacity returns the entry capacity.
func (v *VCache) Capacity() int { return v.capacity }
