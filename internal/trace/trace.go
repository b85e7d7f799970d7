// Package trace defines the synthetic benchmark suite that stands in for
// the 22 SPEC CPU2006 benchmarks of the paper, and generates deterministic
// µop traces from per-benchmark behaviour parameters.
//
// Each benchmark is a parameterised generator of a µop stream: an
// instruction mix (ALU, long-latency FP, load, store, branch), register
// dependency distances (instruction-level parallelism), branch behaviour
// (per-site outcome bias), a code footprint (instruction-fetch locality)
// and a mixture of data access patterns (hot sets, cyclic scans, streams,
// pointer chases, strided walks). The mixture weights and footprint sizes
// are calibrated so that the measured memory intensity (LLC misses per
// kilo-instruction) of each benchmark falls in the class assigned to it by
// Table IV of the paper.
package trace

import (
	"fmt"
	"math/rand"
)

// Kind is a µop category.
type Kind uint8

// µop kinds. Latencies are assigned by the core model, not here.
const (
	ALU Kind = iota // single-cycle integer operation
	FP              // long-latency floating-point operation
	Load
	Store
	Branch
	Call // direct or indirect call: exercises the BTAC / indirect predictor and pushes the RAS
	Ret  // return: pops the RAS
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case FP:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Call:
		return "call"
	case Ret:
		return "ret"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one µop of a benchmark trace.
//
// PC identifies the instruction for the branch predictor and the
// IP-indexed data prefetchers. ILine is the instruction-cache line index
// the op was fetched from (the code-walk position); it is kept separate
// from PC so that stable per-site branch/load PCs do not perturb the
// instruction-fetch stream.
//
// An Op takes 24 bytes. Addr shares a word with Dep1 and ILine one with
// Indirect, so those fields sit behind accessors and setters; the only
// narrowed widths are Addr (below 2^48, the x86-64 user address width)
// and ILine (below 2^24, a 1 GiB code footprint). A 16-byte op cannot
// hold the fields losslessly: they total 197 bits.
type Op struct {
	PC    uint64 // instruction address (synthetic)
	a     uint64 // Addr in the low 48 bits, Dep1 in the high 16
	b     uint32 // ILine in the low 24 bits, Indirect in bit 24
	dep2  uint16
	Kind  Kind
	Taken bool // branch outcome (Branch only)
}

// Field limits of the packed Op.
const (
	maxAddr  = 1<<48 - 1
	maxILine = 1<<24 - 1

	indirectBit = 1 << 24
)

// Addr is the data address for Load/Store, the call target for Call, 0
// otherwise.
func (op Op) Addr() uint64 { return op.a & maxAddr }

// ILine is the instruction-cache line index within the code footprint.
func (op Op) ILine() uint32 { return op.b & maxILine }

// Dep1 is the register dependency distance (ops back), 0 = none.
func (op Op) Dep1() uint16 { return uint16(op.a >> 48) }

// Dep2 is the second dependency distance, 0 = none.
func (op Op) Dep2() uint16 { return op.dep2 }

// Indirect reports a Call through a function pointer (Call only).
func (op Op) Indirect() bool { return op.b&indirectBit != 0 }

// SetAddr sets Addr; a > maxAddr panics (Read and Validate keep every
// trace below it).
func (op *Op) SetAddr(a uint64) {
	if a > maxAddr {
		panic(fmt.Sprintf("trace: address %#x exceeds %#x", a, uint64(maxAddr)))
	}
	op.a = op.a&^maxAddr | a
}

// SetILine sets ILine; l > maxILine panics (Read and Validate keep every
// trace below it).
func (op *Op) SetILine(l uint32) {
	if l > maxILine {
		panic(fmt.Sprintf("trace: instruction line %#x exceeds %#x", l, maxILine))
	}
	op.b = op.b&^maxILine | l
}

// SetDep1 sets Dep1.
func (op *Op) SetDep1(d uint16) { op.a = op.a&maxAddr | uint64(d)<<48 }

// SetDep2 sets Dep2.
func (op *Op) SetDep2(d uint16) { op.dep2 = d }

// SetIndirect sets Indirect.
func (op *Op) SetIndirect(ind bool) {
	op.b &^= indirectBit
	if ind {
		op.b |= indirectBit
	}
}

// Trace is an immutable µop sequence for one benchmark. Traces are built
// once per benchmark and shared read-only by all simulations.
type Trace struct {
	Name string
	Ops  []Op
}

// Len returns the number of µops in the trace.
func (t *Trace) Len() int { return len(t.Ops) }

// CacheLine is the line size assumed by the generators, matching the
// simulated caches (64 bytes).
const CacheLine = 64

// PatternKind selects a data access pattern generator.
type PatternKind uint8

// Supported access patterns.
const (
	// HotSet draws uniformly from a small region, giving temporal reuse.
	HotSet PatternKind = iota
	// Scan sweeps cyclically through a region with a fixed stride. A
	// region larger than the cache thrashes LRU but is BIP/DIP friendly.
	Scan
	// Stream walks ever-forward, never reusing a line (prefetch friendly,
	// zero temporal reuse).
	Stream
	// Chase follows a fixed random permutation of lines in a region,
	// defeating stride prefetchers and serialising misses.
	Chase
	// Stride jumps by a fixed non-unit stride within a region
	// (IP-stride-prefetcher friendly, low spatial reuse).
	Stride
)

// String returns the pattern name.
func (p PatternKind) String() string {
	switch p {
	case HotSet:
		return "hotset"
	case Scan:
		return "scan"
	case Stream:
		return "stream"
	case Chase:
		return "chase"
	case Stride:
		return "stride"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// PatternSpec is one component of a benchmark's data access mixture.
type PatternSpec struct {
	Kind   PatternKind
	Bytes  int     // region footprint in bytes (ignored by Stream)
	Stride int     // stride in bytes for Scan/Stride (default CacheLine)
	Weight float64 // relative probability a memory op uses this pattern
}

// Params describes a synthetic benchmark.
type Params struct {
	Name string

	// Instruction mix. The remaining fraction is ALU.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64

	// DepMean is the geometric-ish mean register dependency distance.
	// Small values serialise execution (low ILP), large values expose
	// parallelism.
	DepMean float64

	// LoadDepFrac is the probability that a dependency landing on a Load
	// is kept. Streaming code computes addresses from induction
	// variables, not loaded data, so its loads stay independent (high
	// memory-level parallelism); pointer-chasing code keeps such
	// dependencies and serialises its misses.
	LoadDepFrac float64

	// BranchBias is the per-site probability of the dominant outcome in
	// [0.5, 1]. 1.0 means perfectly predictable branches.
	BranchBias float64

	// LoopFrac is the fraction of branch µops drawn from loop-exit sites,
	// whose outcome follows a strict period (taken p-1 times, then
	// not-taken once). These branches defeat per-site predictors but are
	// perfectly learnable from history (TAGE territory). Zero disables
	// loop sites and keeps the generator byte-compatible with traces
	// produced before this knob existed.
	LoopFrac float64

	// CorrFrac is the fraction of branch µops drawn from correlated
	// sites, whose outcome repeats the most recent outcome of a paired
	// biased "driver" site. Zero disables them (see LoopFrac).
	CorrFrac float64

	// CallFrac is the fraction of µops that are calls or returns
	// (balanced nesting, bounded depth). A quarter of the call sites are
	// indirect (several possible targets), exercising the indirect
	// predictor; returns exercise the RAS. Zero (the default and the
	// value for the 22-benchmark suite) keeps the generator
	// byte-compatible with traces produced before this knob existed.
	CallFrac float64

	// CodeBytes is the instruction footprint driving IL1 behaviour.
	CodeBytes int

	// Patterns is the data access mixture.
	Patterns []PatternSpec

	// Seed makes the benchmark deterministic and distinct from others.
	Seed int64
}

// Validate reports structural problems in the parameters.
func (p *Params) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: benchmark with empty name")
	}
	frac := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac
	if frac < 0 || frac > 1 {
		return fmt.Errorf("trace: %s: instruction-mix fractions sum to %g, want [0,1]", p.Name, frac)
	}
	if p.BranchBias < 0.5 || p.BranchBias > 1 {
		return fmt.Errorf("trace: %s: branch bias %g outside [0.5,1]", p.Name, p.BranchBias)
	}
	if p.LoopFrac < 0 || p.CorrFrac < 0 || p.LoopFrac+p.CorrFrac > 1 {
		return fmt.Errorf("trace: %s: loop/correlated branch fractions %g/%g invalid", p.Name, p.LoopFrac, p.CorrFrac)
	}
	if p.CallFrac < 0 || frac+p.CallFrac > 1 {
		return fmt.Errorf("trace: %s: call fraction %g overflows the instruction mix", p.Name, p.CallFrac)
	}
	if p.LoadDepFrac < 0 || p.LoadDepFrac > 1 {
		return fmt.Errorf("trace: %s: load-dep fraction %g outside [0,1]", p.Name, p.LoadDepFrac)
	}
	if len(p.Patterns) == 0 {
		return fmt.Errorf("trace: %s: no access patterns", p.Name)
	}
	total := 0.0
	for _, ps := range p.Patterns {
		if ps.Weight < 0 {
			return fmt.Errorf("trace: %s: negative pattern weight", p.Name)
		}
		// A region (or a stride's span) wider than the gap between
		// regions would alias the next pattern and could carry an
		// address past maxAddr.
		if ps.Bytes < 0 || ps.Bytes > regionGap || ps.Stride < 0 || ps.Stride > regionGap {
			return fmt.Errorf("trace: %s: %s pattern of %d bytes, stride %d, outside [0,%d]",
				p.Name, ps.Kind, ps.Bytes, ps.Stride, regionGap)
		}
		total += ps.Weight
	}
	if total == 0 {
		return fmt.Errorf("trace: %s: all pattern weights zero", p.Name)
	}
	if p.CodeBytes <= 0 || p.CodeBytes > (maxILine+1)*CacheLine {
		return fmt.Errorf("trace: %s: code footprint %d outside (0,%d]", p.Name, p.CodeBytes, (maxILine+1)*CacheLine)
	}
	return nil
}

// patternState is the run-time state of one pattern generator.
type patternState struct {
	spec PatternSpec
	base uint64 // region base address
	pc   uint64 // synthetic PC owning this pattern's accesses
	pos  uint64 // cursor for Scan/Stream/Stride
	perm []uint32
	cur  uint32 // cursor for Chase
}

func (ps *patternState) next(rng *rand.Rand) uint64 {
	switch ps.spec.Kind {
	case HotSet:
		lines := uint64(ps.spec.Bytes / CacheLine)
		if lines == 0 {
			lines = 1
		}
		// Two-level locality: most accesses go to a hot core that fits in
		// an L1, the rest spread over the whole footprint. This keeps L1
		// hit rates realistic while the tail still exercises the full
		// region (which is what determines the LLC footprint).
		coreLines := uint64(hotCoreBytes / CacheLine)
		if coreLines > lines {
			coreLines = lines
		}
		if rng.Float64() < hotCoreFrac {
			return ps.base + (rng.Uint64()%coreLines)*CacheLine
		}
		return ps.base + (rng.Uint64()%lines)*CacheLine
	case Scan:
		stride := uint64(ps.spec.Stride)
		if stride == 0 {
			stride = CacheLine
		}
		span := uint64(ps.spec.Bytes)
		if span < stride {
			span = stride
		}
		a := ps.base + ps.pos%span
		ps.pos += stride
		return a
	case Stream:
		a := ps.base + ps.pos
		ps.pos += CacheLine
		return a
	case Chase:
		a := ps.base + uint64(ps.perm[ps.cur])*CacheLine
		ps.cur = ps.perm[ps.cur]
		return a
	case Stride:
		stride := uint64(ps.spec.Stride)
		if stride == 0 {
			stride = 4 * CacheLine
		}
		span := uint64(ps.spec.Bytes)
		if span < stride {
			span = stride
		}
		a := ps.base + ps.pos%span
		ps.pos += stride
		return a
	}
	panic("trace: unknown pattern kind")
}

// regionGap separates pattern regions in the benchmark's virtual address
// space so distinct patterns never alias.
const regionGap = 1 << 28

// hotCoreBytes and hotCoreFrac shape HotSet locality: hotCoreFrac of the
// accesses hit the first hotCoreBytes of the region.
const (
	hotCoreBytes = 16 * KB
	hotCoreFrac  = 0.85
)

// branchSites is the number of distinct biased branch PCs per benchmark;
// loopSites and corrSitesN size the optional loop-exit and correlated
// site pools (used only when LoopFrac/CorrFrac are nonzero).
const (
	branchSites = 64
	loopSites   = 16
	corrSitesN  = 16
)

// Call/return generation limits: callSitesN distinct call sites, nesting
// bounded at maxCallDepth (deep enough to overflow a 16-entry RAS now and
// then, as real call-heavy code does). calleeBase is the synthetic target
// address space; retPC is the single synthetic return-instruction PC.
const (
	callSitesN   = 16
	maxCallDepth = 24
	calleeBase   = 0x20000000
	retPC        = 0x6FFFF0
)

// Generate builds a deterministic trace of n µops from p.
func Generate(p Params, n int) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("trace: %s: non-positive trace length %d", p.Name, n)
	}
	// Pattern i's addresses lie below (i+2)·regionGap, except a Stream's,
	// which advance one line per access: bound both below maxAddr.
	if reach := uint64(len(p.Patterns)+1) * regionGap; reach > maxAddr || uint64(n) > (maxAddr-reach)/CacheLine {
		return nil, fmt.Errorf("trace: %s: %d patterns and %d µops overflow the 48-bit address space",
			p.Name, len(p.Patterns), n)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Pattern states, each in its own region with its own synthetic PC.
	states := make([]*patternState, len(p.Patterns))
	cum := make([]float64, len(p.Patterns))
	total := 0.0
	for i, spec := range p.Patterns {
		st := &patternState{
			spec: spec,
			base: uint64(i+1) * regionGap,
			pc:   0x400000 + uint64(i)*64, // stable per-pattern load/store PC
		}
		if spec.Kind == Chase {
			lines := spec.Bytes / CacheLine
			if lines < 2 {
				lines = 2
			}
			st.perm = randomCycle(rng, lines)
		}
		total += spec.Weight
		cum[i] = total
		states[i] = st
	}

	// Branch sites with per-site dominant outcome and bias.
	type site struct {
		pc       uint64
		dominant bool
	}
	sites := make([]site, branchSites)
	for i := range sites {
		sites[i] = site{pc: 0x500000 + uint64(i)*16, dominant: rng.Intn(2) == 0}
	}

	// Loop-exit sites: strict period p, taken p-1 times then not-taken.
	// A loop, once entered, runs to completion (its branch is emitted for
	// every loop-kind draw until the exit), mirroring how a real backedge
	// branch executes consecutively — this is what makes the pattern
	// recoverable from global history.
	type loopSite struct {
		pc        uint64
		period    int
		remaining int
	}
	var loops []loopSite
	activeLoop := -1
	if p.LoopFrac > 0 {
		loops = make([]loopSite, loopSites)
		for i := range loops {
			loops[i] = loopSite{pc: 0x510000 + uint64(i)*16, period: 4 + rng.Intn(13)}
		}
	}
	// Correlated sites: each repeats the outcome of the immediately
	// preceding branch (an if/else chain re-testing the same condition);
	// the signal sits in the first global-history bit.
	var corrPCs []uint64
	lastOutcome := false
	if p.CorrFrac > 0 {
		corrPCs = make([]uint64, corrSitesN)
		for i := range corrPCs {
			corrPCs[i] = 0x520000 + uint64(i)*16
		}
	}

	// Call sites: fixed return-free targets; a quarter are indirect with
	// several possible callees. Calls and returns nest with bounded depth.
	type callSite struct {
		pc       uint64
		targets  []uint64
		indirect bool
	}
	var callsTbl []callSite
	callDepth := 0
	if p.CallFrac > 0 {
		callsTbl = make([]callSite, callSitesN)
		for i := range callsTbl {
			cs := callSite{pc: 0x600000 + uint64(i)*32}
			if i%4 == 0 {
				cs.indirect = true
				cs.targets = make([]uint64, 4)
				for j := range cs.targets {
					cs.targets[j] = calleeBase + uint64(i*8+j)*256
				}
			} else {
				cs.targets = []uint64{calleeBase + uint64(i*8)*256}
			}
			callsTbl[i] = cs
		}
	}

	codeLines := uint64(p.CodeBytes / CacheLine)
	if codeLines == 0 {
		codeLines = 1
	}

	ops := make([]Op, n)
	var codePos uint64
	for i := range ops {
		op := &ops[i]
		// The code walk packs four µops per instruction line and cycles
		// through the footprint (16 bytes of x86 per µop after cracking).
		iline := (codePos / 4) % codeLines
		op.SetILine(uint32(iline))
		op.PC = 0x10000000 + iline*CacheLine + (codePos%4)*16
		codePos++

		r := rng.Float64()
		switch {
		case r < p.LoadFrac:
			op.Kind = Load
		case r < p.LoadFrac+p.StoreFrac:
			op.Kind = Store
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
			op.Kind = Branch
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
			op.Kind = FP
		case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac+p.CallFrac:
			// Unreachable when CallFrac == 0, preserving the RNG stream
			// of pre-existing parameter sets.
			op.Kind = Call
			if callDepth > 0 && (callDepth >= maxCallDepth || rng.Intn(2) == 1) {
				op.Kind = Ret
			}
		default:
			op.Kind = ALU
		}

		switch op.Kind {
		case Load, Store:
			st := states[pick(cum, total, rng)]
			op.SetAddr(st.next(rng))
			op.PC = st.pc // stable PC enables IP-stride prefetching
		case Branch:
			plainBranch := func() {
				s := sites[rng.Intn(branchSites)]
				op.PC = s.pc
				op.Taken = s.dominant
				if rng.Float64() > p.BranchBias {
					op.Taken = !op.Taken
				}
			}
			if p.LoopFrac == 0 && p.CorrFrac == 0 {
				// Exactly the pre-knob RNG consumption: traces generated
				// by old parameter sets stay byte-identical.
				plainBranch()
				break
			}
			switch kind := rng.Float64(); {
			case kind < p.LoopFrac:
				if activeLoop < 0 {
					activeLoop = rng.Intn(len(loops))
					loops[activeLoop].remaining = loops[activeLoop].period
				}
				ls := &loops[activeLoop]
				op.PC = ls.pc
				ls.remaining--
				op.Taken = ls.remaining > 0
				if ls.remaining == 0 {
					activeLoop = -1
				}
			case kind < p.LoopFrac+p.CorrFrac:
				op.PC = corrPCs[rng.Intn(len(corrPCs))]
				op.Taken = lastOutcome
			default:
				plainBranch()
			}
			lastOutcome = op.Taken
		case Call:
			cs := &callsTbl[rng.Intn(len(callsTbl))]
			op.PC = cs.pc
			op.SetIndirect(cs.indirect)
			target := cs.targets[0]
			if cs.indirect {
				target = cs.targets[rng.Intn(len(cs.targets))]
			}
			op.SetAddr(target)
			callDepth++
		case Ret:
			op.PC = retPC
			callDepth--
		}

		// Register dependencies: geometric-ish distances around DepMean.
		// Dependencies landing on loads are kept only with probability
		// LoadDepFrac (see the Params field).
		dep1 := depDistance(rng, p.DepMean, i)
		if dep1 > 0 && ops[i-int(dep1)].Kind == Load && rng.Float64() >= p.LoadDepFrac {
			dep1 = 0
		}
		op.SetDep1(dep1)
		if rng.Float64() < 0.5 {
			dep2 := depDistance(rng, p.DepMean, i)
			if dep2 > 0 && ops[i-int(dep2)].Kind == Load && rng.Float64() >= p.LoadDepFrac {
				dep2 = 0
			}
			op.SetDep2(dep2)
		}
	}
	return &Trace{Name: p.Name, Ops: ops}, nil
}

// MustGenerate is Generate for known-good parameters (the built-in suite).
func MustGenerate(p Params, n int) *Trace {
	t, err := Generate(p, n)
	if err != nil {
		panic(err)
	}
	return t
}

// pick returns the index of the pattern selected by a cumulative-weight
// draw.
func pick(cum []float64, total float64, rng *rand.Rand) int {
	r := rng.Float64() * total
	for i, c := range cum {
		if r < c {
			return i
		}
	}
	return len(cum) - 1
}

// depDistance draws a dependency distance with mean roughly mean, clamped
// to the number of preceding ops. Zero means no dependency.
func depDistance(rng *rand.Rand, mean float64, i int) uint16 {
	if mean <= 0 || i == 0 {
		return 0
	}
	// Geometric distribution with the requested mean; distance 0 is
	// remapped to "no dependency" which also thins serialisation.
	d := int(rng.ExpFloat64() * mean)
	if d <= 0 {
		return 0
	}
	if d > i {
		d = i
	}
	if d > 60000 {
		d = 60000
	}
	return uint16(d)
}

// randomCycle builds a single-cycle permutation of [0,n) (a random
// Hamiltonian cycle), so a pointer chase visits every line.
func randomCycle(rng *rand.Rand, n int) []uint32 {
	order := rng.Perm(n)
	next := make([]uint32, n)
	for i := 0; i < n; i++ {
		next[order[i]] = uint32(order[(i+1)%n])
	}
	return next
}
