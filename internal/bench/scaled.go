package bench

import (
	"fmt"
	"math/rand"

	"mcbench/internal/trace"
)

// Scaled-population limits. The lower bound keeps every intensity class
// populated; the upper bound keeps a full trace set addressable on a
// small host (512 benchmarks × 100 k µops × 24 B/µop ≈ 1.2 GB if someone
// insists on materialising everything — the lazy source exists so nobody
// has to).
const (
	MinScaled = 12
	MaxScaled = 512
)

// intensity is a benchmark's Table-IV memory-intensity class.
type intensity uint8

const (
	low intensity = iota
	medium
	high
)

func (c intensity) prefix() string {
	switch c {
	case low:
		return "low"
	case medium:
		return "med"
	}
	return "high"
}

// classPattern spreads the suite's class proportions (11 low, 5 medium,
// 6 high out of 22) evenly over any population size: benchmark i takes
// class classPattern[i%22], so every window of the population mixes all
// three classes and small B keeps the paper's rough 50/23/27 split.
var classPattern = [22]intensity{
	low, medium, high, low, low, high, medium, low, high, low, low,
	medium, high, low, low, high, medium, low, high, low, medium, low,
}

// ScaledSource procedurally derives B reproducible synthetic benchmarks
// from a single seed by jittering the three Table-IV intensity-class
// families of the fixed suite. Benchmark i is named
// "<class>-<i padded to 3 digits>" (low-017, high-203, ...), so names
// are self-describing and stable under B changes: scaled:64 and
// scaled:128 with one seed agree on their first 64 benchmarks.
type ScaledSource struct {
	*paramsSource
	b    int
	seed int64
}

// NewScaled builds a scaled source of b benchmarks (MinScaled <= b <=
// MaxScaled) derived from seed. Equal (b, seed) pairs produce identical
// benchmarks on every host.
func NewScaled(b int, seed int64) (*ScaledSource, error) {
	if b < MinScaled || b > MaxScaled {
		return nil, fmt.Errorf("bench: scaled population %d outside [%d, %d]", b, MinScaled, MaxScaled)
	}
	ps := make([]trace.Params, b)
	for i := range ps {
		ps[i] = scaledParams(seed, i)
		if err := ps[i].Validate(); err != nil {
			// The jitter ranges are chosen to always validate; a failure
			// here is a programming error in this file, not bad input.
			panic(err)
		}
	}
	return &ScaledSource{
		paramsSource: newParamsSource(fmt.Sprintf("scaled:%d:%d", b, seed), ps),
		b:            b,
		seed:         seed,
	}, nil
}

// B returns the population size.
func (s *ScaledSource) B() int { return s.b }

// Seed returns the derivation seed.
func (s *ScaledSource) Seed() int64 { return s.seed }

// splitmix64 is the SplitMix64 finaliser, used to derive independent
// per-benchmark RNG streams from (seed, index) without correlation
// between neighbouring indices.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// benchRNG returns the deterministic RNG stream of benchmark i.
func benchRNG(seed int64, i int) *rand.Rand {
	s := splitmix64(splitmix64(uint64(seed)) + uint64(i))
	return rand.New(rand.NewSource(int64(s & (1<<63 - 1))))
}

// between draws uniformly from [lo, hi).
func between(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// kb draws a footprint between lo and hi kilobytes, quantised to 16 kB
// so footprints land on round set-count boundaries like the suite's.
func kb(rng *rand.Rand, lo, hi int) int {
	steps := (hi-lo)/16 + 1
	return (lo + 16*rng.Intn(steps)) * 1024
}

// scaledParams derives benchmark i of the scaled population. All
// randomness comes from the per-benchmark stream, so one benchmark's
// parameters do not depend on B or on any other benchmark.
func scaledParams(seed int64, i int) trace.Params {
	rng := benchRNG(seed, i)
	class := classPattern[i%len(classPattern)]

	p := trace.Params{
		Name: fmt.Sprintf("%s-%03d", class.prefix(), i),
		Seed: int64(splitmix64(uint64(seed)+uint64(i)) & (1<<62 - 1)),
	}

	// Instruction mix: an FP-heavy scientific flavour or an
	// integer/control flavour, mirroring the two populations of the
	// suite (milc/namd/bwaves vs gcc/gobmk/mcf).
	fpFlavour := rng.Float64() < 0.45
	p.LoadFrac = between(rng, 0.25, 0.35)
	p.StoreFrac = between(rng, 0.10, 0.17)
	if fpFlavour {
		p.FPFrac = between(rng, 0.25, 0.40)
		p.BranchFrac = between(rng, 0.03, 0.10)
		p.BranchBias = between(rng, 0.96, 0.99)
		p.DepMean = between(rng, 12, 20)
		p.LoadDepFrac = between(rng, 0.05, 0.30)
	} else {
		p.FPFrac = between(rng, 0.01, 0.05)
		p.BranchFrac = between(rng, 0.10, 0.20)
		p.BranchBias = between(rng, 0.86, 0.95)
		p.DepMean = between(rng, 4, 10)
		p.LoadDepFrac = between(rng, 0.35, 0.70)
	}
	// Keep an ALU share of at least 5% so the mix always validates.
	if sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac; sum > 0.95 {
		f := 0.95 / sum
		p.LoadFrac *= f
		p.StoreFrac *= f
		p.BranchFrac *= f
		p.FPFrac *= f
	}

	// Data access mixture per class, calibrated like the suite against
	// the scaled 256 kB 1-core LLC: what decides the class is the
	// footprint a trace actually touches per iteration relative to that
	// LLC.
	switch class {
	case low:
		// Everything touched fits the LLC comfortably.
		p.CodeBytes = kb(rng, 32, 64)
		p.Patterns = []trace.PatternSpec{
			{Kind: trace.HotSet, Bytes: kb(rng, 64, 112), Weight: between(rng, 1, 4)},
		}
		if rng.Float64() < 0.35 {
			p.Patterns = append(p.Patterns,
				trace.PatternSpec{Kind: trace.Chase, Bytes: kb(rng, 16, 32), Weight: 1})
		}
	case medium:
		// A dominant hot set whose cold tail exceeds the LLC: a
		// moderate, partially-cached miss stream.
		p.CodeBytes = kb(rng, 48, 128)
		p.Patterns = []trace.PatternSpec{
			{Kind: trace.HotSet, Bytes: kb(rng, 192, 352), Weight: between(rng, 8, 19)},
		}
		switch rng.Intn(3) {
		case 0:
			p.Patterns = append(p.Patterns,
				trace.PatternSpec{Kind: trace.Chase, Bytes: kb(rng, 96, 192), Weight: 1})
		case 1:
			p.Patterns = append(p.Patterns,
				trace.PatternSpec{Kind: trace.Scan, Bytes: kb(rng, 48, 80), Stride: 16, Weight: 1})
		default:
			p.Patterns = append(p.Patterns,
				trace.PatternSpec{Kind: trace.Stride, Bytes: kb(rng, 768, 1280),
					Stride: 3 * trace.CacheLine, Weight: 1})
		}
	default: // high
		// Per-iteration touched footprint several times the LLC.
		p.CodeBytes = kb(rng, 16, 96)
		hot := trace.PatternSpec{Kind: trace.HotSet, Bytes: kb(rng, 32, 192),
			Weight: between(rng, 3, 9)}
		switch rng.Intn(3) {
		case 0:
			// LRU-hostile cyclic scan (libquantum/soplex family). The
			// hot set is kept large enough that scan + hot set + code
			// always exceed the LLC.
			p.Patterns = []trace.PatternSpec{
				{Kind: trace.Scan, Bytes: kb(rng, 192, 256), Stride: 16,
					Weight: between(rng, 3, 9)},
				{Kind: trace.HotSet, Bytes: kb(rng, 128, 192),
					Weight: between(rng, 3, 9)},
			}
			if rng.Float64() < 0.4 {
				p.Patterns = append(p.Patterns,
					trace.PatternSpec{Kind: trace.Stream, Weight: 1})
			}
		case 1:
			// Miss-serialising pointer chase (mcf/omnetpp family).
			p.LoadDepFrac = between(rng, 0.60, 0.90)
			p.DepMean = between(rng, 4, 7)
			p.Patterns = []trace.PatternSpec{
				{Kind: trace.Chase, Bytes: kb(rng, 2048, 16384),
					Weight: between(rng, 1, 3)},
				hot,
			}
		default:
			// Prefetch-visible streaming (bwaves/leslie3d family).
			p.LoadDepFrac = between(rng, 0.05, 0.15)
			p.Patterns = []trace.PatternSpec{
				{Kind: trace.Stream, Weight: between(rng, 1, 2)},
				{Kind: trace.Stride, Bytes: kb(rng, 4096, 8192),
					Stride: (3 + 2*rng.Intn(3)) * trace.CacheLine,
					Weight: between(rng, 1, 2)},
				hot,
			}
		}
	}
	return p
}
