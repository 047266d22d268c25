package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/workloads"
)

// configs are the system configurations every workload runs. The
// adaptive configuration is left out on purpose: it is scheduled for
// deletion, and a workload that needed it would turn that deletion
// into a benchmark edit.
var configs = []string{"scalar", "original", "extended"}

// op is one operation of a job mix: a job (an input under one
// configuration) or, in the service mix, a read or replay.
type op struct {
	input  string // built-in workload name or generated source name
	config string
	kind   opKind
}

// opKind tells a job from the service mix's other operations.
type opKind int

const (
	opJob     opKind = iota
	opReplay         // an Idempotency-Key replay of an earlier submission
	opList           // GET /v1/jobs
	opMetrics        // GET /metrics
)

func (o op) key() string { return o.input + "/" + o.config }

// inputs is everything one run generates from its seed: the
// long-checkpoint sources, the job mixes, and the gate their outputs
// must pass. The systems under test only ever receive these generated
// inputs.
type inputs struct {
	seed    int64
	gate    *gate
	suite   []op // built-in × config
	sources []source
	long    []op // generated source × config
}

func newInputs(seed int64, goldens map[string]outcome) *inputs {
	in := &inputs{seed: seed, gate: newGate(goldens), suite: suiteOps()}
	in.sources = genSourceSet(rand.New(rand.NewSource(seed)))
	for _, s := range in.sources {
		for _, c := range configs {
			in.long = append(in.long, op{input: s.name, config: c})
		}
	}
	return in
}

// cycle hands out a job mix to any number of callers for a fixed number
// of whole cycles, each cycle in a fresh seed-shuffled order. Every op
// of the mix runs once per cycle, so a phase of n cycles asks for the
// same work whatever its seed or the host's speed, and reshuffling
// varies which jobs run side by side. The first callers ops of every
// cycle are jobs, so an op that needs an earlier job (a replay) always
// finds one completed.
type cycle struct {
	mu    sync.Mutex
	ops   []op
	rng   *rand.Rand
	n     int
	limit int // ops handed out before the phase ends
}

func newCycle(ops []op, seed int64) *cycle {
	return &cycle{ops: append([]op(nil), ops...), rng: rand.New(rand.NewSource(seed))}
}

func (c *cycle) shuffle() {
	c.rng.Shuffle(len(c.ops), func(i, j int) { c.ops[i], c.ops[j] = c.ops[j], c.ops[i] })
	for i := 0; i < callers && i < len(c.ops); i++ {
		for j := i + 1; c.ops[i].kind != opJob && j < len(c.ops); j++ {
			if c.ops[j].kind == opJob {
				c.ops[i], c.ops[j] = c.ops[j], c.ops[i]
			}
		}
	}
}

// start begins a phase of n whole cycles.
func (c *cycle) start(n int) {
	c.mu.Lock()
	c.n, c.limit = 0, n*len(c.ops)
	c.mu.Unlock()
}

// stop ends the phase early: next hands out no more ops.
func (c *cycle) stop() {
	c.mu.Lock()
	c.limit = c.n
	c.mu.Unlock()
}

// next returns the phase's next op, or false once the phase has run its
// cycles.
func (c *cycle) next() (op, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= c.limit {
		return op{}, false
	}
	i := c.n % len(c.ops)
	if i == 0 {
		c.shuffle()
	}
	c.n++
	return c.ops[i], true
}

// jobsPerCycle counts the jobs in one cycle of the mix.
func (c *cycle) jobsPerCycle() int {
	n := 0
	for _, o := range c.ops {
		if o.kind == opJob {
			n++
		}
	}
	return n
}

// suiteOps is every built-in workload under every configuration.
func suiteOps() []op {
	var ops []op
	for _, name := range workloads.Names() {
		for _, c := range configs {
			ops = append(ops, op{input: name, config: c})
		}
	}
	return ops
}

// Shape of the generated long-checkpoint sources. The sizes are fixed
// so every seed asks for the same amount of work; the seed chooses the
// operations, constants and initial data.
const (
	genWords  = 1 << 16 // elements per array: 3 streams × 256 KiB > 512 KiB L2
	genPasses = 2       // outer-loop entries of the elementwise loops
	genSweeps = 11      // recurrence sweeps per pass
	genBaseA  = 0x100000
	genBaseB  = 0x140000
	genBaseC  = 0x180000
	genBaseD  = 0x1C0000
	// genSources is how many distinct sources one run generates; each
	// runs under every config.
	genSources = 4
)

// aluOps share one cost in the timing model and the DSA vectorizes
// all of them, so the seed's choice among them leaves the simulated
// work of a source and the loops the DSA takes over unchanged.
var aluOps = []string{"add", "sub", "eor", "orr", "and"}

// genSource writes one raw armlite source of about 12.7 million scalar
// steps. Two elementwise loops over arrays larger than the modelled L2
// are re-entered by an outer loop; they are what the DSA vectorizes.
// A loop-carried recurrence (each output depends on the previous one)
// stays scalar, so the extended run, at about 10.6 million steps, also
// crosses the runner's default checkpoint cadence twice.
func genSource(r *rand.Rand) string {
	pick := func() string { return aluOps[r.Intn(len(aluOps))] }
	imm := func() int { return 1 + r.Intn(255) }
	var b strings.Builder
	fmt.Fprintf(&b, `
        mov   r0, #0
        mov   r4, #%[1]d
        mov   r3, #%[2]d
        mov   r6, #%[3]d
        mov   r5, #%[4]d
        mov   r10, #%[5]d
init:   add   r3, r3, #%[6]d
        eor   r7, r0, r6
        str   r3, [r5], #4
        str   r7, [r10], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   init
        mov   r9, #%[7]d
outer:  mov   r5, #%[4]d
        mov   r10, #%[5]d
        mov   r2, #%[8]d
        mov   r0, #0
ew1:    ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        %[9]s   r3, r3, r1
        %[10]s   r3, r3, #%[11]d
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   ew1
        mov   r5, #%[8]d
        mov   r10, #%[5]d
        mov   r2, #%[4]d
        mov   r0, #0
ew2:    ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        %[12]s   r3, r3, #%[13]d
        %[14]s   r3, r3, r1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   ew2
        mov   r8, #%[15]d
        mov   r5, #%[8]d
        mov   r2, #%[16]d
sweep:  mov   r0, #0
rec:    ldr   r3, [r5, r0, lsl #2]
        %[17]s   r6, r6, r3
        eor   r6, r6, #%[18]d
        str   r6, [r2, r0, lsl #2]
        add   r0, r0, #1
        cmp   r0, r4
        blt   rec
        sub   r8, r8, #1
        cmp   r8, #0
        bgt   sweep
        sub   r9, r9, #1
        cmp   r9, #0
        bgt   outer
        halt
`, genWords, r.Intn(1<<16), r.Intn(1<<16), genBaseA, genBaseB, imm(),
		genPasses, genBaseC, pick(), pick(), imm(), pick(), imm(), pick(),
		genSweeps, genBaseD, []string{"add", "sub", "eor"}[r.Intn(3)], imm())
	return b.String()
}

// source is one generated raw-source input.
type source struct {
	name string
	text string
}

// genSourceSet builds the run's sources from its seed.
func genSourceSet(r *rand.Rand) []source {
	out := make([]source, genSources)
	for i := range out {
		out[i] = source{name: fmt.Sprintf("gen%d", i), text: genSource(r)}
	}
	return out
}

// sourceWorkload wraps raw source the way the service wraps a client
// submission: the program is parsed on every Scalar call (as built-ins
// assemble theirs), memory starts zeroed, and the result is the
// digest. Set-up parses every source once, so a parse failure here is
// impossible short of a parser bug; it panics, which the runner
// reports as a failed job.
func sourceWorkload(s source) *workloads.Workload {
	return &workloads.Workload{
		Name:        s.name,
		Description: "generated source",
		Scalar: func() *armlite.Program {
			p, err := asm.Parse(s.name, s.text)
			if err != nil {
				panic(err)
			}
			return p
		},
		Setup: func(*cpu.Machine) {},
		Check: func(*cpu.Machine) error { return nil },
	}
}
