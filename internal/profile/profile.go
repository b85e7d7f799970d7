// Package profile computes microarchitecture-independent profiles of
// benchmark traces: instruction mix, dependency distances, branch
// behaviour, code/data footprints and the reuse-distance (LRU stack
// distance) histogram of the memory reference stream.
//
// Van Biesbrouck, Eeckhout and Calder ("Representative multiprogram
// workloads for multithreaded processor simulation", IISWC 2007 — cited
// as [7] by the paper) build workload samples by clustering exactly this
// kind of profile. Package cluster consumes the feature vectors produced
// here; package sampling turns the clusters into the two class-based
// selection methods the paper surveys in Section II-B.
package profile

import (
	"fmt"
	"math"

	"mcbench/internal/trace"
)

// ReuseBuckets is the number of log2-spaced reuse-distance buckets:
// bucket i counts accesses with stack distance in [2^i, 2^(i+1)), bucket 0
// counts distance 0 and 1, and the last bucket also absorbs cold misses
// (infinite distance).
const ReuseBuckets = 22

// Profile summarises one benchmark trace.
type Profile struct {
	Name string
	Ops  int

	// Instruction mix (fractions of all µops).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64
	CallFrac   float64 // calls + returns

	// Dependency behaviour.
	MeanDepDist float64 // mean register dependency distance (both slots)
	DepFrac     float64 // fraction of µops with at least one dependency

	// Branch behaviour.
	TakenRate      float64 // fraction of branches taken
	TransitionRate float64 // fraction of branches whose outcome differs from the previous branch's
	BranchSites    int     // distinct branch PCs

	// Footprints.
	CodeLines int // distinct instruction-cache lines touched
	DataLines int // distinct data-cache lines touched

	// Memory locality.
	MemRefs     int // load + store µops
	ReuseHist   [ReuseBuckets]uint64
	ColdMisses  uint64  // first-touch accesses (infinite stack distance)
	SeqFrac     float64 // accesses whose line follows the previous access's line
	MeanLogDist float64 // mean log2(1+stack distance) over finite distances
}

// Compute profiles tr in one pass. The reuse-distance computation is the
// Bennett–Kruskal algorithm: a Fenwick tree over access timestamps counts
// the distinct lines touched since the profiled line's previous access.
func Compute(tr *trace.Trace) (*Profile, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("profile: empty trace")
	}
	p := &Profile{Name: tr.Name, Ops: tr.Len()}

	memOps := 0
	for _, op := range tr.Ops {
		if op.Kind == trace.Load || op.Kind == trace.Store {
			memOps++
		}
	}
	fen := newFenwick(memOps + 1)
	lastAccess := make(map[uint64]int, 1<<12) // line -> timestamp (1-based)

	var (
		deps, depSum int
		branches     uint64
		taken, trans uint64
		prevTaken    bool
		havePrev     bool
		branchPCs    = map[uint64]struct{}{}
		codeLines    = map[uint32]struct{}{}
		prevLine     uint64
		havePrevLine bool
		seq          uint64
		logDistSum   float64
		finiteReuses uint64
		memTime      int // 1-based timestamp of the current memory access
	)

	for i := range tr.Ops {
		op := &tr.Ops[i]
		codeLines[op.ILine()] = struct{}{}
		dep1, dep2 := op.Dep1(), op.Dep2()
		if dep1 > 0 || dep2 > 0 {
			deps++
		}
		depSum += int(dep1) + int(dep2)
		switch op.Kind {
		case trace.Load:
			p.LoadFrac++
		case trace.Store:
			p.StoreFrac++
		case trace.FP:
			p.FPFrac++
		case trace.Call, trace.Ret:
			p.CallFrac++
		case trace.Branch:
			p.BranchFrac++
			branches++
			branchPCs[op.PC] = struct{}{}
			if op.Taken {
				taken++
			}
			if havePrev && op.Taken != prevTaken {
				trans++
			}
			prevTaken, havePrev = op.Taken, true
		}

		if op.Kind != trace.Load && op.Kind != trace.Store {
			continue
		}
		line := op.Addr() / trace.CacheLine
		memTime++
		if havePrevLine && (line == prevLine || line == prevLine+1) {
			seq++
		}
		prevLine, havePrevLine = line, true

		if last, ok := lastAccess[line]; ok {
			// Stack distance: distinct lines since the previous access.
			dist := fen.rangeSum(last+1, memTime-1)
			p.ReuseHist[bucketOf(dist)]++
			logDistSum += math.Log2(float64(1 + dist))
			finiteReuses++
			fen.add(last, -1)
		} else {
			p.ColdMisses++
			p.ReuseHist[ReuseBuckets-1]++
		}
		lastAccess[line] = memTime
		fen.add(memTime, 1)
	}

	n := float64(tr.Len())
	p.LoadFrac /= n
	p.StoreFrac /= n
	p.BranchFrac /= n
	p.FPFrac /= n
	p.CallFrac /= n
	if deps > 0 {
		p.MeanDepDist = float64(depSum) / float64(deps)
	}
	p.DepFrac = float64(deps) / n
	if branches > 0 {
		p.TakenRate = float64(taken) / float64(branches)
	}
	if branches > 1 {
		p.TransitionRate = float64(trans) / float64(branches-1)
	}
	p.BranchSites = len(branchPCs)
	p.CodeLines = len(codeLines)
	p.DataLines = len(lastAccess)
	p.MemRefs = memTime
	if memTime > 0 {
		p.SeqFrac = float64(seq) / float64(memTime)
	}
	if finiteReuses > 0 {
		p.MeanLogDist = logDistSum / float64(finiteReuses)
	}
	return p, nil
}

// MustCompute is Compute for known-good traces.
func MustCompute(tr *trace.Trace) *Profile {
	p, err := Compute(tr)
	if err != nil {
		panic(err)
	}
	return p
}

// bucketOf maps a stack distance to its log2 histogram bucket.
func bucketOf(dist int) int {
	if dist < 2 {
		return 0
	}
	b := 0
	for d := dist; d > 1; d >>= 1 {
		b++
	}
	if b >= ReuseBuckets-1 {
		return ReuseBuckets - 2 // the last bucket is reserved for cold
	}
	return b
}

// MissRatio estimates the fraction of memory references that miss in a
// fully-associative LRU cache of cacheLines lines: references whose stack
// distance is at least cacheLines, plus cold misses. It is the classical
// microarchitecture-independent miss model; set-associativity, private-L1
// filtering and prefetching make real miss ratios differ, but the ranking
// of benchmarks by memory intensity is preserved.
func (p *Profile) MissRatio(cacheLines int) float64 {
	if p.MemRefs == 0 {
		return 0
	}
	var misses uint64
	for b := 0; b < ReuseBuckets-1; b++ {
		// Bucket b holds distances in [2^b, 2^(b+1)); count it as missing
		// if its lower bound is at or past the cache size.
		lower := 1 << b
		if b == 0 {
			lower = 0
		}
		if lower >= cacheLines {
			misses += p.ReuseHist[b]
		}
	}
	misses += p.ReuseHist[ReuseBuckets-1] // cold
	return float64(misses) / float64(p.MemRefs)
}

// EstMPKI converts MissRatio into misses per kilo-instruction for a cache
// of the given size in bytes.
func (p *Profile) EstMPKI(cacheBytes int) float64 {
	ratio := p.MissRatio(cacheBytes / trace.CacheLine)
	return ratio * float64(p.MemRefs) / float64(p.Ops) * 1000
}

// Features returns the benchmark's feature vector for cluster analysis.
// Dimensions are chosen to be microarchitecture-independent and roughly
// comparable in magnitude; cluster.Normalize z-scores them anyway.
func (p *Profile) Features() []float64 {
	return []float64{
		p.LoadFrac,
		p.StoreFrac,
		p.BranchFrac,
		p.FPFrac,
		p.MeanDepDist,
		p.DepFrac,
		p.TakenRate,
		p.TransitionRate,
		math.Log2(float64(1 + p.CodeLines)),
		math.Log2(float64(1 + p.DataLines)),
		p.SeqFrac,
		p.MeanLogDist,
		p.MissRatio(1 << 8),  // 16 kB
		p.MissRatio(1 << 12), // 256 kB
		p.MissRatio(1 << 14), // 1 MB
	}
}

// FeatureNames labels the dimensions of Features, index-aligned.
func FeatureNames() []string {
	return []string{
		"load-frac", "store-frac", "branch-frac", "fp-frac",
		"mean-dep-dist", "dep-frac", "taken-rate", "transition-rate",
		"log2-code-lines", "log2-data-lines", "seq-frac", "mean-log-reuse",
		"miss-ratio-16k", "miss-ratio-256k", "miss-ratio-1m",
	}
}

// ---------------------------------------------------------------------------
// Fenwick tree (binary indexed tree) over 1-based positions.

type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for ; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// prefixSum returns the sum of positions 1..i.
func (f *fenwick) prefixSum(i int) int {
	s := 0
	if i >= len(f.tree) {
		i = len(f.tree) - 1
	}
	for ; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return s
}

// rangeSum returns the sum of positions lo..hi (inclusive); empty ranges
// return 0.
func (f *fenwick) rangeSum(lo, hi int) int {
	if hi < lo {
		return 0
	}
	if lo < 1 {
		lo = 1
	}
	return f.prefixSum(hi) - f.prefixSum(lo-1)
}
