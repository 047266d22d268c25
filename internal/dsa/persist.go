package dsa

import (
	"fmt"
	"sort"

	"repro/internal/armlite"
	"repro/internal/snapshot"
)

// Snapshot section names owned by the dsa layer (the cpu layer owns
// meta/cpu/neon/mem/caches).
const (
	secEngine = "dsa.engine"
	secStats  = "dsa.stats"
	secCache  = "dsa.cache"
	secFaults = "dsa.faults"
)

// Quiescent reports whether the engine is between analyses: no live
// loop tracks and no pending takeover offer. Tracks hold pointers into
// the record stream and decide within a few iterations, so rather than
// serializing them a snapshot simply waits for the next quiescent
// point (System.Run checks after every step).
func (e *Engine) Quiescent() bool { return len(e.live) == 0 && e.pending == nil }

// SetRunHook installs fn to run between steps of System.Run, only at
// engine-quiescent points — the periodic-checkpoint tap. A non-nil
// return aborts the run with that error. Takeovers are atomic with
// respect to the hook: it can never observe an open cpu.Checkpoint or
// a half-applied speculative window.
func (s *System) SetRunHook(fn func() error) { s.runHook = fn }

// SaveState appends the full system state — machine plus engine — to
// w. It may only be called at a quiescent point (between System.Run
// steps with no live analysis; the run hook guarantees this).
func (s *System) SaveState(w *snapshot.Writer) error {
	if !s.E.Quiescent() {
		return fmt.Errorf("dsa: snapshot at non-quiescent point (%d live tracks, pending=%v)",
			len(s.E.live), s.E.pending != nil)
	}
	s.M.SaveState(w)
	e := s.E

	var eng snapshot.Enc
	encodeDSAConfig(&eng, &e.cfg)
	kinds := make([]int, 0, len(e.kindOf))
	for id := range e.kindOf {
		kinds = append(kinds, id)
	}
	sort.Ints(kinds)
	eng.U32(uint32(len(kinds)))
	for _, id := range kinds {
		eng.Int(id)
		eng.Int(int(e.kindOf[id]))
	}
	w.Add(secEngine, eng.Bytes())

	var st snapshot.Enc
	encodeStats(&st, e.stats)
	w.Add(secStats, st.Bytes())

	var ca snapshot.Enc
	encodeDSACache(&ca, e.Cache)
	w.Add(secCache, ca.Bytes())

	if s.faults != nil {
		var fa snapshot.Enc
		fa.U64(s.faults.Seen)
		fa.U64(s.faults.Fired)
		w.Add(secFaults, fa.Bytes())
	}
	return nil
}

// RestoreState rebuilds the full system state from r. The snapshot
// must come from a system running the same program under the same cpu
// and dsa configuration (ErrMismatch otherwise). On any error the
// system must be considered unusable — callers rebuild a fresh system
// and restart from zero.
func (s *System) RestoreState(r *snapshot.Reader) error {
	if err := s.M.RestoreState(r); err != nil {
		return err
	}
	e := s.E

	eng, err := dsaSection(r, secEngine)
	if err != nil {
		return err
	}
	if err := checkDSAConfig(eng, &e.cfg); err != nil {
		return err
	}
	e.kindOf = make(map[int]LoopKind)
	nKinds := int(eng.U32())
	for i := 0; i < nKinds && eng.Err() == nil; i++ {
		id := eng.Int()
		e.kindOf[id] = LoopKind(eng.Int())
	}
	if err := eng.Done(); err != nil {
		return err
	}

	st, err := dsaSection(r, secStats)
	if err != nil {
		return err
	}
	// Decoded in place: the Executor shares this *Stats, so the pointer
	// must survive the restore.
	if err := decodeStats(st, e.stats); err != nil {
		return err
	}
	if err := st.Done(); err != nil {
		return err
	}

	ca, err := dsaSection(r, secCache)
	if err != nil {
		return err
	}
	if err := decodeDSACache(ca, e.Cache); err != nil {
		return err
	}
	if err := ca.Done(); err != nil {
		return err
	}

	if s.faults != nil {
		fa, err := dsaSection(r, secFaults)
		if err != nil {
			return err
		}
		s.faults.Seen = fa.U64()
		s.faults.Fired = fa.U64()
		s.faults.label, s.faults.truncate, s.faults.errOnce = "", false, false
		if err := fa.Done(); err != nil {
			return err
		}
	} else if r.Has(secFaults) {
		return fmt.Errorf("%w: snapshot from a fault-injection run restored without fault config", snapshot.ErrMismatch)
	}

	// Analysis and probing state restart clean: live tracks and the
	// pending request were empty at save time (quiescence), and the
	// verification cache is reset per analysis.
	e.live = nil
	e.pending = nil
	e.VCache.Reset()
	return nil
}

func dsaSection(r *snapshot.Reader, name string) (*snapshot.Dec, error) {
	p, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	return snapshot.NewDec(p), nil
}

// encodeDSAConfig serializes the behavior-determining configuration so
// a resumed run cannot silently continue under different mechanisms
// (which would break bit-identity with the uninterrupted run). Adding
// or removing a field here makes older checkpoints fail checkDSAConfig
// with a typed error, so they restart from zero without a
// snapshot.Version bump.
func encodeDSAConfig(e *snapshot.Enc, c *Config) {
	e.Int(c.DSACacheBytes)
	e.Int(c.VCacheBytes)
	e.Int(c.ArrayMaps)
	e.Int(int(c.Leftover))
	e.Bool(c.EnableConditional)
	e.Bool(c.EnableSentinel)
	e.Bool(c.EnableDynamicRange)
	e.Bool(c.EnablePartial)
	e.Bool(c.EnableGuardVec)
	e.U64(c.TakeoverStepBudget)
	e.Bool(c.Verify.Enabled)
	e.Bool(c.Verify.Fallback)
	e.U64(c.Verify.MaxReplaySteps)
	e.Int(int(c.Fault.Kind))
	e.U64(c.Fault.EveryN)
	e.I64(c.Fault.SkewBytes)
	l := &c.Latencies
	for _, v := range []int64{l.ObservePerInstr, l.DSACacheAccess, l.VCacheAccess,
		l.ArrayMapAccess, l.CIDPCompare, l.PartialReanalysis,
		l.PipelineFlush, l.PlanSetup, l.LeftoverElement} {
		e.I64(v)
	}
}

func checkDSAConfig(d *snapshot.Dec, c *Config) error {
	var got snapshot.Enc
	encodeDSAConfig(&got, c)
	want := d.Raw(len(got.Bytes()))
	if d.Err() != nil {
		return d.Err()
	}
	if string(want) != string(got.Bytes()) {
		return fmt.Errorf("%w: snapshot taken under a different DSA configuration", snapshot.ErrMismatch)
	}
	return nil
}

// --- stats ---

func encodeStats(e *snapshot.Enc, s *Stats) {
	e.I64(s.AnalysisTicks)
	e.U64(s.StateTransitions)
	e.U64(s.Observations)
	e.U64(s.DSACacheAccesses)
	e.U64(s.DSACacheHits)
	e.U64(s.VCacheAccesses)
	e.U64(s.VCacheOverflows)
	e.U64(s.ArrayMapAccesses)
	e.U64(s.CIDPCompares)
	e.U64(s.Takeovers)
	e.U64(s.VectorizedIters)
	e.U64(s.LeftoverElements)
	e.I64(s.OverheadTicks)
	e.U64(s.LoopsDetected)
	e.U64(s.Fallbacks)
	e.U64(s.VerifiedTakeovers)
	e.U64(s.Divergences)
	e.U64(s.DroppedRequests)

	kinds := make([]int, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	e.U32(uint32(len(kinds)))
	for _, k := range kinds {
		e.Int(k)
		e.U64(s.ByKind[LoopKind(k)])
	}
	encodeCounters(e, s.RejectedReasons)
	encodeCounters(e, s.FallbackReasons)
}

func decodeStats(d *snapshot.Dec, s *Stats) error {
	s.AnalysisTicks = d.I64()
	s.StateTransitions = d.U64()
	s.Observations = d.U64()
	s.DSACacheAccesses = d.U64()
	s.DSACacheHits = d.U64()
	s.VCacheAccesses = d.U64()
	s.VCacheOverflows = d.U64()
	s.ArrayMapAccesses = d.U64()
	s.CIDPCompares = d.U64()
	s.Takeovers = d.U64()
	s.VectorizedIters = d.U64()
	s.LeftoverElements = d.U64()
	s.OverheadTicks = d.I64()
	s.LoopsDetected = d.U64()
	s.Fallbacks = d.U64()
	s.VerifiedTakeovers = d.U64()
	s.Divergences = d.U64()
	s.DroppedRequests = d.U64()

	s.ByKind = make(map[LoopKind]uint64)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := LoopKind(d.Int())
		s.ByKind[k] = d.U64()
	}
	var err error
	if s.RejectedReasons, err = decodeCounters(d); err != nil {
		return err
	}
	if s.FallbackReasons, err = decodeCounters(d); err != nil {
		return err
	}
	return d.Err()
}

func encodeCounters(e *snapshot.Enc, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.U64(m[k])
	}
}

func decodeCounters(d *snapshot.Dec) (map[string]uint64, error) {
	out := make(map[string]uint64)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		out[k] = d.U64()
	}
	return out, d.Err()
}

// --- DSA cache ---

// encodeDSACache writes the learned-loop cache in LRU order (least
// recent first), so decoding can rebuild it through Insert and end up
// with an identical replacement order.
func encodeDSACache(e *snapshot.Enc, c *DSACache) {
	e.U32(uint32(len(c.order)))
	for i := len(c.order) - 1; i >= 0; i-- {
		encodeCachedLoop(e, c.entries[c.order[i]])
	}
}

func decodeDSACache(d *snapshot.Dec, c *DSACache) error {
	n := int(d.U32())
	if n > c.capacity {
		return fmt.Errorf("%w: %d cached loops, cache holds %d", snapshot.ErrMismatch, n, c.capacity)
	}
	c.entries = make(map[int]*CachedLoop, n)
	c.order = nil
	for i := 0; i < n; i++ {
		cl, err := decodeCachedLoop(d)
		if err != nil {
			return err
		}
		if _, dup := c.entries[cl.LoopID]; dup {
			return fmt.Errorf("%w: duplicate cached loop %d", snapshot.ErrCorrupt, cl.LoopID)
		}
		c.Insert(cl)
	}
	return d.Err()
}

func encodeCachedLoop(e *snapshot.Enc, cl *CachedLoop) {
	e.Int(cl.LoopID)
	e.Int(int(cl.Kind))
	e.Bool(cl.Vectorizable)
	e.Str(cl.Reason)
	e.Int(cl.SentinelRange)
	e.U32(cl.LimitValue)
	e.Bool(cl.LimitIsImm)
	e.Bool(cl.Analysis != nil)
	if cl.Analysis != nil {
		encodeAnalysis(e, cl.Analysis)
	}
}

func decodeCachedLoop(d *snapshot.Dec) (*CachedLoop, error) {
	cl := &CachedLoop{
		LoopID:       d.Int(),
		Kind:         LoopKind(d.Int()),
		Vectorizable: d.Bool(),
		Reason:       d.Str(),
	}
	cl.SentinelRange = d.Int()
	cl.LimitValue = d.U32()
	cl.LimitIsImm = d.Bool()
	if d.Bool() {
		a, err := decodeAnalysis(d)
		if err != nil {
			return nil, err
		}
		cl.Analysis = a
	}
	return cl, d.Err()
}

// --- analysis: node table, DAGs, plans ---

// nodeTable assigns dense indices to every payload-DAG node reachable
// from an Analysis, deduplicating shared nodes (the sentinel RegOut
// map and the guard-compare operands point into their DAGs' node
// lists) and registering operands before users so decode can resolve
// A/B references in one pass.
type nodeTable struct {
	idx   map[*Node]int
	nodes []*Node
}

func (nt *nodeTable) add(n *Node) int {
	if n == nil {
		return -1
	}
	if i, ok := nt.idx[n]; ok {
		return i
	}
	nt.add(n.A)
	nt.add(n.B)
	i := len(nt.nodes)
	nt.idx[n] = i
	nt.nodes = append(nt.nodes, n)
	return i
}

func (nt *nodeTable) addDAG(dag *PayloadDAG) {
	if dag == nil {
		return
	}
	for _, n := range dag.Nodes {
		nt.add(n)
	}
	for i := range dag.Stores {
		nt.add(dag.Stores[i].Value)
	}
}

// guardDAG reconstructs the guard payload DAG from the guard plan
// (which retains the DAG's node and store lists).
func guardDAG(v *CondVec) *PayloadDAG {
	return &PayloadDAG{Nodes: v.GuardPlan.nodes, Stores: v.GuardPlan.stores}
}

// armPathIndex finds which conditional path an arm's plan was built
// from, by node-list identity — CondArm shares its DAG and pattern
// table with the path, and that sharing must survive a round trip
// (cache-hit rebasing mutates the path's patterns in place and the
// arm must observe it).
func armPathIndex(c *CondAnalysis, arm *CondArm) int {
	if arm == nil {
		return -1
	}
	for i := range c.Paths {
		p := &c.Paths[i]
		if p.Payload != nil && len(p.Payload.Nodes) > 0 && len(arm.Plan.nodes) > 0 &&
			&p.Payload.Nodes[0] == &arm.Plan.nodes[0] {
			return i
		}
	}
	return -1
}

// guardPatternsPath finds the conditional path whose pattern table
// backs v.GuardPatterns (tryGuardVectorization reuses the first
// analyzed path's table), or -1 when the guard table is independent.
func guardPatternsPath(c *CondAnalysis, v *CondVec) int {
	if len(v.GuardPatterns) == 0 {
		return -1
	}
	for i := range c.Paths {
		p := &c.Paths[i]
		if len(p.patterns) == len(v.GuardPatterns) && &p.patterns[0] == &v.GuardPatterns[0] {
			return i
		}
	}
	return -1
}

func encodeAnalysis(e *snapshot.Enc, a *Analysis) {
	nt := &nodeTable{idx: make(map[*Node]int)}
	nt.addDAG(a.Payload)
	if a.Sent != nil {
		nt.addDAG(a.Sent.Payload)
		for _, n := range a.Sent.RegOut {
			nt.add(n)
		}
	}
	if a.Cond != nil {
		for i := range a.Cond.Paths {
			nt.addDAG(a.Cond.Paths[i].Payload)
		}
		if v := a.Cond.Vec; v != nil {
			nt.addDAG(guardDAG(v))
			nt.add(v.A)
			nt.add(v.B)
		}
	}

	e.U32(uint32(len(nt.nodes)))
	for _, n := range nt.nodes {
		e.U8(uint8(n.Kind))
		e.Int(n.Pattern)
		e.U8(uint8(n.Reg))
		e.U32(uint32(n.Imm))
		e.U8(uint8(n.Op))
		e.Int(nodeRef(nt, n.A)) // operands registered before users
		e.Int(nodeRef(nt, n.B))
	}

	e.Int(a.LoopID)
	e.Int(a.BranchPC)
	e.Int(int(a.Kind))
	encodeTrip(e, &a.Trip)
	encodeInduction(e, a.Induction)
	encodePatterns(e, a.Patterns)
	e.U8(uint8(a.ElemDT))
	encodeDAGRef(e, nt, a.Payload)
	e.Bool(a.CID.HasCID)
	e.Int(a.CID.ConflictIter)
	e.Int(a.CID.Distance)
	e.Int(a.CID.Compares)
	e.Bool(a.Partial)

	e.Bool(a.Cond != nil)
	if c := a.Cond; c != nil {
		encodePCSet(e, c.ActionPCs)
		e.Int(c.StoreSlots)
		e.U32(uint32(len(c.Paths)))
		for i := range c.Paths {
			p := &c.Paths[i]
			e.Int(p.ID)
			encodePCSet(e, p.PCs)
			encodeDAGRef(e, nt, p.Payload)
			encodePatterns(e, p.patterns)
		}
		e.Bool(c.Vec != nil)
		if v := c.Vec; v != nil {
			encodeDAGRef(e, nt, guardDAG(v))
			// GuardPatterns aliases the first analyzed path's pattern
			// table (tryGuardVectorization passes that table through),
			// and rebase updates guard stream bases *via* that sharing.
			// Encode the alias as a path index so restore reproduces
			// the same backing array; a copy here would freeze the
			// guard's addresses at snapshot time.
			e.Int(guardPatternsPath(c, v))
			if guardPatternsPath(c, v) == -1 {
				encodePatterns(e, v.GuardPatterns)
			}
			e.Int(nodeRef(nt, v.A))
			e.Int(nodeRef(nt, v.B))
			e.U8(uint8(v.Cond))
			e.Bool(v.Float)
			e.Bool(v.Unsigned)
			e.Int(armPathIndex(c, v.Taken))
			e.Int(armPathIndex(c, v.Fall))
		}
	}

	e.Bool(a.Sent != nil)
	if sn := a.Sent; sn != nil {
		encodePCSet(e, sn.StopPCs)
		encodePCSet(e, sn.ActionPCs)
		e.Int(sn.ExitPC)
		// Sent.Payload aliases Analysis.Payload today; the flag keeps
		// the format honest if that ever changes.
		e.Bool(sn.Payload == a.Payload)
		if sn.Payload != a.Payload {
			encodeDAGRef(e, nt, sn.Payload)
		}
		regs := make([]int, 0, len(sn.RegOut))
		for r := range sn.RegOut {
			regs = append(regs, int(r))
		}
		sort.Ints(regs)
		e.U32(uint32(len(regs)))
		for _, r := range regs {
			e.U8(uint8(r))
			e.Int(nodeRef(nt, sn.RegOut[armlite.Reg(r)]))
		}
	}
}

func nodeRef(nt *nodeTable, n *Node) int {
	if n == nil {
		return -1
	}
	return nt.idx[n]
}

func decodeAnalysis(d *snapshot.Dec) (*Analysis, error) {
	nNodes := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nNodes > 1<<20 {
		return nil, fmt.Errorf("%w: %d payload nodes claimed", snapshot.ErrCorrupt, nNodes)
	}
	nodes := make([]*Node, nNodes)
	for i := range nodes {
		n := &Node{
			Kind:    NodeKind(d.U8()),
			Pattern: d.Int(),
			Reg:     armlite.Reg(d.U8()),
			Imm:     int32(d.U32()),
			Op:      armlite.Op(d.U8()),
		}
		var err error
		if n.A, err = resolveNode(d, nodes, i); err != nil {
			return nil, err
		}
		if n.B, err = resolveNode(d, nodes, i); err != nil {
			return nil, err
		}
		nodes[i] = n
	}

	a := &Analysis{
		LoopID:   d.Int(),
		BranchPC: d.Int(),
		Kind:     LoopKind(d.Int()),
	}
	if err := decodeTrip(d, &a.Trip); err != nil {
		return nil, err
	}
	var err error
	if a.Induction, err = decodeInduction(d); err != nil {
		return nil, err
	}
	if a.Patterns, err = decodePatterns(d); err != nil {
		return nil, err
	}
	a.ElemDT = armlite.DataType(d.U8())
	if a.Payload, err = decodeDAGRef(d, nodes); err != nil {
		return nil, err
	}
	a.CID.HasCID = d.Bool()
	a.CID.ConflictIter = d.Int()
	a.CID.Distance = d.Int()
	a.CID.Compares = d.Int()
	a.Partial = d.Bool()

	var gdag *PayloadDAG
	takenPath, fallPath := -1, -1
	if d.Bool() { // Cond
		c := &CondAnalysis{}
		if c.ActionPCs, err = decodePCSet(d); err != nil {
			return nil, err
		}
		c.StoreSlots = d.Int()
		nPaths := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if nPaths > 1<<16 {
			return nil, fmt.Errorf("%w: %d conditional paths claimed", snapshot.ErrCorrupt, nPaths)
		}
		c.Paths = make([]CondPath, nPaths)
		for i := range c.Paths {
			p := &c.Paths[i]
			p.ID = d.Int()
			if p.PCs, err = decodePCSet(d); err != nil {
				return nil, err
			}
			if p.Payload, err = decodeDAGRef(d, nodes); err != nil {
				return nil, err
			}
			if p.patterns, err = decodePatterns(d); err != nil {
				return nil, err
			}
		}
		if d.Bool() { // Vec
			v := &CondVec{}
			if gdag, err = decodeDAGRef(d, nodes); err != nil {
				return nil, err
			}
			if gi := d.Int(); gi >= 0 {
				if gi >= len(c.Paths) || len(c.Paths[gi].patterns) == 0 {
					return nil, fmt.Errorf("%w: guard patterns alias path %d", snapshot.ErrCorrupt, gi)
				}
				v.GuardPatterns = c.Paths[gi].patterns
			} else if v.GuardPatterns, err = decodePatterns(d); err != nil {
				return nil, err
			}
			if v.A, err = lookupNode(d, nodes); err != nil {
				return nil, err
			}
			if v.B, err = lookupNode(d, nodes); err != nil {
				return nil, err
			}
			v.Cond = armlite.Cond(d.U8())
			v.Float = d.Bool()
			v.Unsigned = d.Bool()
			takenPath = d.Int()
			fallPath = d.Int()
			if err := pathInRange(takenPath, nPaths); err != nil {
				return nil, err
			}
			if err := pathInRange(fallPath, nPaths); err != nil {
				return nil, err
			}
			c.Vec = v
		}
		a.Cond = c
	}

	if d.Bool() { // Sent
		sn := &SentAnalysis{}
		if sn.StopPCs, err = decodePCSet(d); err != nil {
			return nil, err
		}
		if sn.ActionPCs, err = decodePCSet(d); err != nil {
			return nil, err
		}
		sn.ExitPC = d.Int()
		if d.Bool() {
			sn.Payload = a.Payload
		} else if sn.Payload, err = decodeDAGRef(d, nodes); err != nil {
			return nil, err
		}
		sn.RegOut = make(map[armlite.Reg]*Node)
		nOut := int(d.U32())
		for i := 0; i < nOut && d.Err() == nil; i++ {
			r := armlite.Reg(d.U8())
			n, err := lookupNode(d, nodes)
			if err != nil {
				return nil, err
			}
			sn.RegOut[r] = n
		}
		a.Sent = sn
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := rebuildPlans(a, gdag, takenPath, fallPath); err != nil {
		return nil, err
	}
	return a, nil
}

func resolveNode(d *snapshot.Dec, nodes []*Node, before int) (*Node, error) {
	i := d.Int()
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= before {
		return nil, fmt.Errorf("%w: node operand reference %d (must precede node %d)", snapshot.ErrCorrupt, i, before)
	}
	return nodes[i], nil
}

func lookupNode(d *snapshot.Dec, nodes []*Node) (*Node, error) {
	i := d.Int()
	if i == -1 {
		return nil, nil
	}
	if i < 0 || i >= len(nodes) {
		return nil, fmt.Errorf("%w: node reference %d of %d", snapshot.ErrCorrupt, i, len(nodes))
	}
	return nodes[i], nil
}

func pathInRange(i, n int) error {
	if i < -1 || i >= n {
		return fmt.Errorf("%w: conditional arm path %d of %d", snapshot.ErrCorrupt, i, n)
	}
	return nil
}

// rebuildPlans regenerates every SIMD plan from the decoded DAGs.
// Plans are deterministic functions of (DAG, patterns, element type,
// base register) — see BuildPlanAt — so rebuilding them reproduces the
// original register assignment exactly, and the snapshot never has to
// serialize planner internals.
func rebuildPlans(a *Analysis, gdag *PayloadDAG, takenPath, fallPath int) error {
	if a.Cond != nil {
		for i := range a.Cond.Paths {
			p := &a.Cond.Paths[i]
			if p.Payload == nil {
				continue
			}
			if err := checkDAG(p.Payload, len(p.patterns)); err != nil {
				return err
			}
			plan, err := BuildPlan(p.Payload, p.patterns, a.ElemDT)
			if err != nil {
				return fmt.Errorf("%w: rebuilding path %d plan: %v", snapshot.ErrCorrupt, i, err)
			}
			p.plan = plan
		}
		if v := a.Cond.Vec; v != nil {
			if gdag == nil {
				return fmt.Errorf("%w: guard-vectorized conditional without guard DAG", snapshot.ErrCorrupt)
			}
			if err := checkDAG(gdag, len(v.GuardPatterns)); err != nil {
				return err
			}
			gplan, err := BuildPlanAt(gdag, v.GuardPatterns, a.ElemDT, 0, v.A, v.B)
			if err != nil {
				return fmt.Errorf("%w: rebuilding guard plan: %v", snapshot.ErrCorrupt, err)
			}
			v.GuardPlan = gplan
			// Arms allocate registers above the guard in taken-then-fall
			// order, mirroring the original construction.
			base := armlite.VReg(len(gdag.Nodes))
			mkArm := func(idx int) (*CondArm, error) {
				if idx < 0 {
					return nil, nil
				}
				p := &a.Cond.Paths[idx]
				if p.Payload == nil {
					return nil, fmt.Errorf("%w: conditional arm points at empty path %d", snapshot.ErrCorrupt, idx)
				}
				plan, err := BuildPlanAt(p.Payload, p.patterns, a.ElemDT, base)
				if err != nil {
					return nil, fmt.Errorf("%w: rebuilding arm plan: %v", snapshot.ErrCorrupt, err)
				}
				base += armlite.VReg(len(p.Payload.Nodes))
				return &CondArm{Plan: plan, Patterns: p.patterns}, nil
			}
			if v.Taken, err = mkArm(takenPath); err != nil {
				return err
			}
			if v.Fall, err = mkArm(fallPath); err != nil {
				return err
			}
		}
		return nil
	}
	if a.Payload != nil {
		if err := checkDAG(a.Payload, len(a.Patterns)); err != nil {
			return err
		}
		plan, err := BuildPlan(a.Payload, a.Patterns, a.ElemDT)
		if err != nil {
			return fmt.Errorf("%w: rebuilding plan: %v", snapshot.ErrCorrupt, err)
		}
		a.plan = plan
	}
	return nil
}

// checkDAG bounds-checks every pattern index before the planner (which
// trusts them) runs over a decoded DAG.
func checkDAG(dag *PayloadDAG, nPatterns int) error {
	for _, n := range dag.Nodes {
		if (n.Kind == NodeLoad || n.Kind == NodeConstMem) && (n.Pattern < 0 || n.Pattern >= nPatterns) {
			return fmt.Errorf("%w: node pattern index %d of %d", snapshot.ErrCorrupt, n.Pattern, nPatterns)
		}
	}
	for i := range dag.Stores {
		if p := dag.Stores[i].Pattern; p < 0 || p >= nPatterns {
			return fmt.Errorf("%w: store pattern index %d of %d", snapshot.ErrCorrupt, p, nPatterns)
		}
		if dag.Stores[i].Value == nil {
			return fmt.Errorf("%w: store slot %d without a value node", snapshot.ErrCorrupt, i)
		}
	}
	return nil
}

func encodeDAGRef(e *snapshot.Enc, nt *nodeTable, dag *PayloadDAG) {
	e.Bool(dag != nil)
	if dag == nil {
		return
	}
	e.U32(uint32(len(dag.Nodes)))
	for _, n := range dag.Nodes {
		e.Int(nodeRef(nt, n))
	}
	e.U32(uint32(len(dag.Stores)))
	for i := range dag.Stores {
		e.Int(dag.Stores[i].Pattern)
		e.Int(nodeRef(nt, dag.Stores[i].Value))
	}
}

func decodeDAGRef(d *snapshot.Dec, nodes []*Node) (*PayloadDAG, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	dag := &PayloadDAG{}
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > len(nodes) {
		return nil, fmt.Errorf("%w: DAG claims %d of %d nodes", snapshot.ErrCorrupt, n, len(nodes))
	}
	dag.Nodes = make([]*Node, n)
	for i := range dag.Nodes {
		nd, err := lookupNode(d, nodes)
		if err != nil {
			return nil, err
		}
		if nd == nil {
			return nil, fmt.Errorf("%w: nil node in DAG node list", snapshot.ErrCorrupt)
		}
		dag.Nodes[i] = nd
	}
	nStores := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nStores > 1<<16 {
		return nil, fmt.Errorf("%w: %d store slots claimed", snapshot.ErrCorrupt, nStores)
	}
	dag.Stores = make([]StoreSlot, nStores)
	for i := range dag.Stores {
		dag.Stores[i].Pattern = d.Int()
		v, err := lookupNode(d, nodes)
		if err != nil {
			return nil, err
		}
		dag.Stores[i].Value = v
	}
	return dag, d.Err()
}

func encodeTrip(e *snapshot.Enc, t *TripInfo) {
	e.U8(uint8(t.CounterReg))
	e.I64(t.Delta)
	e.U8(uint8(t.LimitReg))
	e.U32(uint32(t.LimitImm))
	e.Bool(t.LimitIsImm)
	e.U8(uint8(t.Cond))
	e.Int(t.CmpPC)
	e.Bool(t.CounterIsRn)
	e.Bool(t.Unsigned)
}

func decodeTrip(d *snapshot.Dec, t *TripInfo) error {
	t.CounterReg = armlite.Reg(d.U8())
	t.Delta = d.I64()
	t.LimitReg = armlite.Reg(d.U8())
	t.LimitImm = int32(d.U32())
	t.LimitIsImm = d.Bool()
	t.Cond = armlite.Cond(d.U8())
	t.CmpPC = d.Int()
	t.CounterIsRn = d.Bool()
	t.Unsigned = d.Bool()
	return d.Err()
}

func encodeInduction(e *snapshot.Enc, ind map[armlite.Reg]int64) {
	regs := make([]int, 0, len(ind))
	for r := range ind {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	e.U32(uint32(len(regs)))
	for _, r := range regs {
		e.U8(uint8(r))
		e.I64(ind[armlite.Reg(r)])
	}
}

func decodeInduction(d *snapshot.Dec) (map[armlite.Reg]int64, error) {
	out := make(map[armlite.Reg]int64)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		r := armlite.Reg(d.U8())
		out[r] = d.I64()
	}
	return out, d.Err()
}

func encodePatterns(e *snapshot.Enc, ps []MemPattern) {
	e.U32(uint32(len(ps)))
	for i := range ps {
		p := &ps[i]
		e.Int(p.PC)
		e.Bool(p.Store)
		e.U8(uint8(p.DT))
		e.Int(p.Size)
		e.U8(uint8(p.BaseReg))
		e.U8(uint8(p.Mem.Base))
		e.U8(uint8(p.Mem.Index))
		e.U32(uint32(p.Mem.Offset))
		e.U8(p.Mem.Shift)
		e.U8(uint8(p.Mem.Kind))
		e.Bool(p.Mem.Writeback)
		e.Bool(p.MultiOcc)
		e.Int(p.RefIterA)
		e.Int(p.RefIterB)
		e.U32(p.AddrA)
		e.U32(p.AddrB)
		e.I64(p.Stride)
	}
}

func decodePatterns(d *snapshot.Dec) ([]MemPattern, error) {
	n := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("%w: %d memory patterns claimed", snapshot.ErrCorrupt, n)
	}
	ps := make([]MemPattern, n)
	for i := range ps {
		p := &ps[i]
		p.PC = d.Int()
		p.Store = d.Bool()
		p.DT = armlite.DataType(d.U8())
		p.Size = d.Int()
		p.BaseReg = armlite.Reg(d.U8())
		p.Mem.Base = armlite.Reg(d.U8())
		p.Mem.Index = armlite.Reg(d.U8())
		p.Mem.Offset = int32(d.U32())
		p.Mem.Shift = d.U8()
		p.Mem.Kind = armlite.AddrKind(d.U8())
		p.Mem.Writeback = d.Bool()
		p.MultiOcc = d.Bool()
		p.RefIterA = d.Int()
		p.RefIterB = d.Int()
		p.AddrA = d.U32()
		p.AddrB = d.U32()
		p.Stride = d.I64()
	}
	return ps, d.Err()
}

func encodePCSet(e *snapshot.Enc, s map[int]bool) {
	pcs := make([]int, 0, len(s))
	for pc, on := range s {
		if on {
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)
	e.U32(uint32(len(pcs)))
	for _, pc := range pcs {
		e.Int(pc)
	}
}

func decodePCSet(d *snapshot.Dec) (map[int]bool, error) {
	out := make(map[int]bool)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		out[d.Int()] = true
	}
	return out, d.Err()
}
