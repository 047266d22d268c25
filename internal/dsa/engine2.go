package dsa

import (
	"sort"

	"repro/internal/armlite"
)

// deriveTrip implements Fig. 25's "Detecting Index and Stop
// Condition": find the flag-setter feeding the back-branch, classify
// its operands into counter (induction) and limit (invariant).
func (e *Engine) deriveTrip(t *track) *TripInfo {
	if t.trip != nil {
		return t.trip
	}
	recs := t.cur
	if len(t.it3) > 0 {
		recs = t.it3
	}
	if len(recs) < 2 {
		return nil
	}
	br := recs[len(recs)-1]
	if br.PC != t.branchPC || br.Instr.Cond == armlite.CondAL {
		return nil
	}
	var fs *StepRec
	for i := len(recs) - 2; i >= 0; i-- {
		in := recs[i].Instr
		if in.Op.SetsFlagsAlways() || in.SetFlags {
			fs = &recs[i]
			break
		}
	}
	if fs == nil || !t.inBody(fs.PC) {
		return nil
	}
	// Counter/limit roles from raw deltas (the counter need not be an
	// address register).
	isCtr := func(r armlite.Reg) bool {
		return r.Valid() && t.deltaOK[r] && t.delta[r] != 0
	}
	isInv := func(r armlite.Reg) bool {
		return r.Valid() && t.deltaOK[r] && t.delta[r] == 0
	}
	cond := br.Instr.Cond
	unsigned := cond == armlite.CondHS || cond == armlite.CondLO ||
		cond == armlite.CondHI || cond == armlite.CondLS

	ti := &TripInfo{Cond: cond, CmpPC: fs.PC, Unsigned: unsigned}
	in := fs.Instr
	switch {
	case in.Op == armlite.OpCmp && in.HasImm:
		if !isCtr(in.Rn) {
			return nil
		}
		ti.CounterReg, ti.Delta = in.Rn, t.delta[in.Rn]
		ti.LimitReg, ti.LimitImm, ti.LimitIsImm = armlite.NoReg, in.Imm, true
		ti.CounterIsRn = true
	case in.Op == armlite.OpCmp:
		switch {
		case isCtr(in.Rn) && isInv(in.Rm):
			ti.CounterReg, ti.Delta = in.Rn, t.delta[in.Rn]
			ti.LimitReg = in.Rm
			ti.CounterIsRn = true
		case isCtr(in.Rm) && isInv(in.Rn):
			ti.CounterReg, ti.Delta = in.Rm, t.delta[in.Rm]
			ti.LimitReg = in.Rn
			ti.CounterIsRn = false
		default:
			return nil
		}
	case (in.Op == armlite.OpSub || in.Op == armlite.OpAdd) && in.SetFlags:
		// subs/adds counter: flags compare the updated counter to 0.
		if !isCtr(in.Rd) {
			return nil
		}
		ti.CounterReg, ti.Delta = in.Rd, t.delta[in.Rd]
		ti.LimitReg, ti.LimitImm, ti.LimitIsImm = armlite.NoReg, 0, true
		ti.CounterIsRn = true
	default:
		return nil
	}
	t.trip = ti
	return ti
}

// buildRegEnv derives the register-role environment for extraction:
// deltas from the snapshots, induction roles from address usage and
// the trip counter.
func (e *Engine) buildRegEnv(t *track, recs []StepRec) *regEnv {
	env := &regEnv{delta: t.delta, deltaOK: t.deltaOK}
	for i := range recs {
		in := recs[i].Instr
		if in.Op.IsMem() {
			env.ind.Add(in.Mem.Base)
			env.ind.Add(in.Mem.Index)
		}
	}
	if t.trip != nil {
		env.ind.Add(t.trip.CounterReg)
	}
	return env
}

// tripLimitValue reads the limit under the end-of-iteration snapshot.
func (t *track) tripLimitValue() uint32 {
	if t.trip.LimitIsImm {
		return uint32(t.trip.LimitImm)
	}
	return t.snapCur[t.trip.LimitReg]
}

// buildPatterns pairs the memory observations of two iterations into
// linear access patterns. Sites must appear in both iterations with
// matching occurrence counts.
func (e *Engine) buildPatterns(t *track, recs []StepRec, iterA, iterB int) ([]MemPattern, map[memKey]int, error) {
	// Instruction metadata per site, from the representative records.
	type siteInfo struct {
		instr *armlite.Instr
		store bool
		size  int
	}
	sites := make(map[memKey]siteInfo)
	occ := make(map[int]int)
	var order []memKey
	for i := range recs {
		r := &recs[i]
		if !r.HasMem {
			continue
		}
		o := occ[r.PC]
		occ[r.PC] = o + 1
		k := memKey{pc: r.PC, occ: o}
		if _, dup := sites[k]; !dup {
			sites[k] = siteInfo{instr: r.Instr, store: r.MemStore, size: r.MemSize}
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].pc != order[j].pc {
			return order[i].pc < order[j].pc
		}
		return order[i].occ < order[j].occ
	})
	patterns := make([]MemPattern, 0, len(order))
	patIdx := make(map[memKey]int, len(order))
	for _, k := range order {
		obs := t.mem[k]
		var a, b *memObs
		for i := range obs {
			if obs[i].iter == iterA {
				a = &obs[i]
			}
			if obs[i].iter == iterB {
				b = &obs[i]
			}
		}
		if a == nil || b == nil {
			return nil, nil, rejectf("irregular-memory-site")
		}
		si := sites[k]
		p, err := NewMemPattern(k.pc, si.store, si.instr.DT, si.size, iterA, iterB, a.addr, b.addr)
		if err != nil {
			return nil, nil, rejectf("non-linear-access")
		}
		p.BaseReg = si.instr.Mem.Base
		p.Mem = si.instr.Mem
		p.MultiOcc = k.occ > 0 || occ[k.pc] > 1
		patterns = append(patterns, p)
		patIdx[k] = len(patterns) - 1
	}
	return patterns, patIdx, nil
}

// structuralPCs computes the instruction addresses executed as scalar
// glue for simple loops: the trip compare, the back-branch, and pure
// induction updates.
func (t *track) structuralPCs(env *regEnv, recs []StepRec) map[int]bool {
	s := map[int]bool{t.branchPC: true}
	if t.trip != nil {
		s[t.trip.CmpPC] = true
	}
	induction := func(r armlite.Reg) bool { return env.class(r) == clInduction }
	for i := range recs {
		in := recs[i].Instr
		if in.Op.IsMem() || in.Op.IsBranch() || !in.Op.IsALU() {
			continue
		}
		defs := in.Defs()
		if defs.Count() == 0 {
			continue
		}
		allInd := true
		for _, r := range defs.Regs() {
			if !induction(r) {
				allInd = false
				break
			}
		}
		if !allInd {
			continue
		}
		usesOK := true
		for _, r := range in.Uses().Regs() {
			if !induction(r) {
				usesOK = false
				break
			}
		}
		if usesOK {
			s[recs[i].PC] = true
		}
	}
	return s
}

// decideSimple is the Dependency Analysis + Store ID decision for
// count, function and dynamic-range loops.
func (e *Engine) decideSimple(t *track) {
	t.stage = stDecided
	e.stats.StateTransitions++
	fail := func(reason string) {
		t.reject(reason)
		e.recordVerdict(t, false)
	}
	trip := e.deriveTrip(t)
	if trip == nil {
		fail("trip-underivable")
		return
	}
	rem, ok := trip.Remaining(t.snapCur[trip.CounterReg], t.tripLimitValue())
	if !ok {
		fail("trip-underivable")
		return
	}
	n := 3 + rem

	patterns, patIdx, err := e.buildPatterns(t, t.it3, 2, 3)
	if err != nil {
		fail(reasonOf(err))
		return
	}
	cid := PredictCID(patterns, 2, n)
	e.stats.CIDPCompares += uint64(cid.Compares)
	e.stats.AnalysisTicks += int64(cid.Compares) * e.cfg.Latencies.CIDPCompare
	partial := false
	if cid.HasCID {
		if !e.cfg.EnablePartial || cid.Distance < 2 {
			fail("cross-iteration-dependency")
			return
		}
		partial = true
	}

	env := e.buildRegEnv(t, t.it3)
	structural := t.structuralPCs(env, t.it3)
	dag, dt, err := extractPayload(t.it3, env, patterns, patIdx, structural)
	if err != nil {
		fail(reasonOf(err))
		return
	}
	plan, err := BuildPlan(dag, patterns, dt)
	if err != nil {
		fail(reasonOf(err))
		return
	}

	kind := KindCount
	if t.sawCall {
		kind = KindFunction
	}
	if t.kind == KindDynamicRange {
		kind = KindDynamicRange
	}
	a := &Analysis{
		LoopID:    t.id,
		BranchPC:  t.branchPC,
		Kind:      kind,
		Trip:      *trip,
		Induction: inductionMap(env),
		Patterns:  patterns,
		ElemDT:    dt,
		Payload:   dag,
		CID:       cid,
		Partial:   partial,
		plan:      plan,
	}
	t.kind = kind
	t.analysis = a

	entry := &CachedLoop{
		LoopID:       t.id,
		Kind:         kind,
		Vectorizable: true,
		Analysis:     a,
		LimitValue:   t.tripLimitValue(),
		LimitIsImm:   trip.LimitIsImm,
	}
	e.Cache.Insert(entry)
	e.stats.DSACacheAccesses++
	e.stats.AnalysisTicks += e.cfg.Latencies.DSACacheAccess
	e.recordVerdict(t, true)

	// Profitability guard: switching to the NEON engine costs a
	// pipeline flush, so the remaining window must cover at least two
	// full vectors to pay for itself.
	if n-4 < 2*dt.Lanes() {
		return // too few iterations left this entry; cached for later
	}
	if e.pending == nil {
		e.pending = e.newRequest(Request{Kind: ReqVector, Analysis: a, StartIter: 4, TotalIters: n, Cached: entry})
	}
}

func inductionMap(env *regEnv) map[armlite.Reg]int64 {
	m := make(map[armlite.Reg]int64)
	for r := armlite.Reg(0); r < armlite.NumRegs; r++ {
		if env.class(r) == clInduction {
			m[r] = env.delta[r]
		}
	}
	return m
}

// decideSentinel analyzes a loop whose exit depends on data computed
// inside the body (§4.6.5).
func (e *Engine) decideSentinel(t *track) {
	t.stage = stDecided
	e.stats.StateTransitions++
	fail := func(reason string) {
		t.reject(reason)
		e.recordVerdict(t, false)
	}
	if !e.cfg.EnableSentinel {
		fail("sentinel-disabled")
		return
	}
	if t.sawCall {
		fail("sentinel-function-mix")
		return
	}
	if t.condSeen {
		fail("conditional-sentinel-mix")
		return
	}
	stop := e.stopSlice(t)
	if stop == nil {
		fail("stop-slice-underivable")
		return
	}

	patterns, patIdx, err := e.buildPatterns(t, t.it3, 2, 3)
	if err != nil {
		fail(reasonOf(err))
		return
	}
	// Stop-slice stores would need per-iteration side effects — reject.
	for _, p := range patterns {
		if p.Store && stop[p.PC] {
			fail("store-in-stop-slice")
			return
		}
	}
	// The payload (action) is everything outside the stop slice;
	// stop-slice loads stay visible so their values seed the dataflow.
	structural := make(map[int]bool, len(stop))
	for pc := range stop {
		structural[pc] = true
	}
	for _, p := range patterns {
		if !p.Store && structural[p.PC] {
			delete(structural, p.PC)
		}
	}
	env := e.buildRegEnv(t, t.it3)
	// Induction updates and the back-branch are structural too.
	for pc := range t.structuralPCs(env, t.it3) {
		structural[pc] = true
	}
	dag, dt, err := extractPayload(t.it3, env, patterns, patIdx, structural)
	if err != nil {
		fail(reasonOf(err))
		return
	}
	plan, err := BuildPlan(dag, patterns, dt)
	if err != nil {
		fail(reasonOf(err))
		return
	}
	// Action instructions must follow the exit check in program order
	// so an exiting iteration has not yet run its (skipped) action.
	actionPCs := make(map[int]bool)
	minAction := t.branchPC + 1
	for pc := t.id; pc <= t.branchPC; pc++ {
		if !stop[pc] {
			actionPCs[pc] = true
			if pc < minAction {
				minAction = pc
			}
		}
	}
	if t.exitSeen && minAction < t.exitPC {
		fail("action-before-exit-check")
		return
	}

	spec := specRangeFor(0, dt.Lanes())
	cid := PredictCID(patterns, 2, 3+spec+1)
	e.stats.CIDPCompares += uint64(cid.Compares)
	e.stats.AnalysisTicks += int64(cid.Compares) * e.cfg.Latencies.CIDPCompare
	if cid.HasCID {
		fail("cross-iteration-dependency")
		return
	}

	// Payload temporaries that survive the loop must be recomputable
	// at commit time (the skipped iterations never produce them
	// architecturally).
	regOut := make(map[armlite.Reg]*Node)
	for r, ro := range dag.regOut {
		if actionPCs[ro.PC] {
			regOut[r] = ro.Node
		}
	}

	a := &Analysis{
		LoopID:    t.id,
		BranchPC:  t.branchPC,
		Kind:      KindSentinel,
		Induction: inductionMap(env),
		Patterns:  patterns,
		ElemDT:    dt,
		Payload:   dag,
		Sent:      &SentAnalysis{StopPCs: stop, ActionPCs: actionPCs, Payload: dag, ExitPC: t.exitPC, RegOut: regOut},
		plan:      plan,
	}
	if t.trip != nil {
		a.Trip = *t.trip
	} else {
		a.Trip.CounterReg = armlite.NoReg
		a.Trip.LimitReg = armlite.NoReg
	}
	t.kind = KindSentinel
	t.analysis = a

	entry := &CachedLoop{LoopID: t.id, Kind: KindSentinel, Vectorizable: true, Analysis: a}
	e.Cache.Insert(entry)
	e.stats.DSACacheAccesses++
	e.stats.AnalysisTicks += e.cfg.Latencies.DSACacheAccess
	e.recordVerdict(t, true)

	if e.pending == nil {
		e.pending = e.newRequest(Request{Kind: ReqSentinel, Analysis: a, StartIter: 4, SpecRange: spec, Cached: entry})
	}
}

// stopSlice computes the backward slice of every exit check over the
// static body: the instructions that must keep executing scalar so the
// stop condition is evaluated each iteration.
func (e *Engine) stopSlice(t *track) map[int]bool {
	code := e.m.Prog.Code
	if t.branchPC >= len(code) {
		return nil
	}
	slice := make(map[int]bool)
	// Seeds: every branch that can leave the body, the back-branch,
	// and every flag-setting instruction (payloads reject compares, so
	// flag setters belong to control).
	for pc := t.id; pc <= t.branchPC; pc++ {
		in := code[pc]
		switch {
		case in.Op == armlite.OpB && pc == t.branchPC:
			slice[pc] = true
		case in.Op == armlite.OpB && (in.Target < t.id || in.Target > t.branchPC):
			slice[pc] = true
		case in.Op == armlite.OpB && in.Cond == armlite.CondAL:
			slice[pc] = true // control glue
		case in.Op.SetsFlagsAlways() || in.SetFlags:
			slice[pc] = true
		case in.Op == armlite.OpBL || in.Op == armlite.OpBX || in.Op == armlite.OpHalt:
			return nil // calls inside a sentinel body: unsupported
		}
	}
	// Transitive closure over register dataflow (body treated as a
	// cycle, so iterate to a fixed point).
	for changed := true; changed; {
		changed = false
		var needed armlite.RegSet
		for pc := range slice {
			needed = needed.Union(code[pc].Uses())
		}
		for pc := t.id; pc <= t.branchPC; pc++ {
			if slice[pc] {
				continue
			}
			for _, r := range code[pc].Defs().Regs() {
				if needed.Has(r) {
					slice[pc] = true
					changed = true
					break
				}
			}
		}
	}
	return slice
}
