package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSuiteHas22UniqueBenchmarks(t *testing.T) {
	ps := Suite()
	if len(ps) != 22 {
		t.Fatalf("suite has %d benchmarks, want 22", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("benchmark %q invalid: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok || p.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %v, %v", p.Name, ok)
	}
	if _, ok := ByName("not-a-benchmark"); ok {
		t.Fatal("ByName should fail for unknown benchmark")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("gcc")
	a := MustGenerate(p, 5000)
	b := MustGenerate(p, 5000)
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("length mismatch")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs between identical generations", i)
		}
	}
}

func TestGenerateDistinctSeeds(t *testing.T) {
	p, _ := ByName("gcc")
	a := MustGenerate(p, 2000)
	p.Seed++
	b := MustGenerate(p, 2000)
	same := 0
	for i := range a.Ops {
		if a.Ops[i] == b.Ops[i] {
			same++
		}
	}
	if same == len(a.Ops) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestInstructionMixMatchesParams(t *testing.T) {
	for _, p := range Suite() {
		tr := MustGenerate(p, 20000)
		counts := map[Kind]int{}
		for _, op := range tr.Ops {
			counts[op.Kind]++
		}
		n := float64(len(tr.Ops))
		check := func(kind Kind, want float64) {
			got := float64(counts[kind]) / n
			if math.Abs(got-want) > 0.02 {
				t.Errorf("%s: %v fraction %g, want %g±0.02", p.Name, kind, got, want)
			}
		}
		check(Load, p.LoadFrac)
		check(Store, p.StoreFrac)
		check(Branch, p.BranchFrac)
		check(FP, p.FPFrac)
	}
}

func TestMemoryOpsHaveAddresses(t *testing.T) {
	for _, name := range []string{"mcf", "povray", "libquantum"} {
		p, _ := ByName(name)
		tr := MustGenerate(p, 10000)
		for i, op := range tr.Ops {
			switch op.Kind {
			case Load, Store:
				if op.Addr() == 0 {
					t.Fatalf("%s: op %d is %v with zero address", name, i, op.Kind)
				}
			default:
				if op.Addr() != 0 {
					t.Fatalf("%s: op %d is %v with address %#x", name, i, op.Kind, op.Addr())
				}
			}
		}
	}
}

func TestDependencyDistancesInRange(t *testing.T) {
	p, _ := ByName("hmmer")
	tr := MustGenerate(p, 10000)
	for i, op := range tr.Ops {
		if int(op.Dep1()) > i || int(op.Dep2()) > i {
			t.Fatalf("op %d has dependency beyond trace start (%d,%d)", i, op.Dep1(), op.Dep2())
		}
	}
}

func TestBranchBiasRealised(t *testing.T) {
	// A highly biased benchmark should have branches dominated by one
	// outcome per site; a weakly biased one should not.
	p, _ := ByName("libquantum") // bias 0.99
	tr := MustGenerate(p, 50000)
	taken := map[uint64][2]int{}
	for _, op := range tr.Ops {
		if op.Kind != Branch {
			continue
		}
		c := taken[op.PC]
		if op.Taken {
			c[1]++
		} else {
			c[0]++
		}
		taken[op.PC] = c
	}
	if len(taken) == 0 {
		t.Fatal("no branches generated")
	}
	for pc, c := range taken {
		tot := c[0] + c[1]
		if tot < 20 {
			continue
		}
		dom := c[0]
		if c[1] > dom {
			dom = c[1]
		}
		if frac := float64(dom) / float64(tot); frac < 0.9 {
			t.Errorf("site %#x dominant outcome fraction %g, want >= 0.9 for bias 0.99", pc, frac)
		}
	}
}

func TestChasePatternVisitsAllLines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 10, 257} {
		perm := randomCycle(rng, n)
		// Follow the cycle and verify it is a single cycle covering all
		// elements.
		seen := make([]bool, n)
		cur := uint32(0)
		for i := 0; i < n; i++ {
			if seen[cur] {
				t.Fatalf("n=%d: revisited %d after %d steps", n, cur, i)
			}
			seen[cur] = true
			cur = perm[cur]
		}
		if cur != 0 {
			t.Fatalf("n=%d: cycle did not close", n)
		}
	}
}

func TestPatternFootprints(t *testing.T) {
	// Every address from a HotSet/Scan/Chase/Stride pattern must stay
	// within its declared region.
	p := Params{
		Name: "probe", LoadFrac: 1, BranchBias: 0.9, CodeBytes: 4 * KB,
		DepMean: 4, Seed: 3,
		Patterns: []PatternSpec{{Kind: Scan, Bytes: 64 * KB, Weight: 1}},
	}
	tr := MustGenerate(p, 8000)
	var min, max uint64 = math.MaxUint64, 0
	for _, op := range tr.Ops {
		if op.Kind != Load {
			continue
		}
		if op.Addr() < min {
			min = op.Addr()
		}
		if op.Addr() > max {
			max = op.Addr()
		}
	}
	if span := max - min; span >= 64*KB {
		t.Errorf("scan span %d exceeds declared 64KB footprint", span)
	}
}

func TestStreamNeverRepeatsLines(t *testing.T) {
	p := Params{
		Name: "probe", LoadFrac: 1, BranchBias: 0.9, CodeBytes: 4 * KB,
		DepMean: 4, Seed: 3,
		Patterns: []PatternSpec{{Kind: Stream, Weight: 1}},
	}
	tr := MustGenerate(p, 5000)
	seen := map[uint64]bool{}
	for _, op := range tr.Ops {
		if op.Kind != Load {
			continue
		}
		line := op.Addr() / CacheLine
		if seen[line] {
			t.Fatalf("stream revisited line %#x", line)
		}
		seen[line] = true
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good := Params{
		Name: "x", LoadFrac: 0.3, BranchBias: 0.9, CodeBytes: 4 * KB,
		Patterns: []PatternSpec{{Kind: HotSet, Bytes: KB, Weight: 1}},
	}
	cases := []struct {
		mutate func(*Params)
		desc   string
	}{
		{func(p *Params) { p.Name = "" }, "empty name"},
		{func(p *Params) { p.LoadFrac = 1.2 }, "mix > 1"},
		{func(p *Params) { p.BranchBias = 0.3 }, "bias < 0.5"},
		{func(p *Params) { p.LoadDepFrac = 1.5 }, "load-dep fraction > 1"},
		{func(p *Params) { p.LoadDepFrac = -0.1 }, "negative load-dep fraction"},
		{func(p *Params) { p.Patterns = nil }, "no patterns"},
		{func(p *Params) { p.Patterns[0].Weight = 0 }, "zero weights"},
		{func(p *Params) { p.CodeBytes = 0 }, "no code"},
		{func(p *Params) { p.CodeBytes = (maxILine+1)*CacheLine + 1 }, "code past 2^24 lines"},
		{func(p *Params) { p.Patterns[0].Bytes = regionGap + 1 }, "region wider than the gap"},
		{func(p *Params) { p.Patterns[0].Bytes = -KB }, "negative region"},
		{func(p *Params) { p.Patterns[0].Stride = regionGap + 1 }, "stride wider than the gap"},
		{func(p *Params) { p.Patterns[0].Stride = -CacheLine }, "negative stride"},
	}
	for _, c := range cases {
		p := good
		p.Patterns = append([]PatternSpec(nil), good.Patterns...)
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %s", c.desc)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good params: %v", err)
	}
	limits := good
	limits.CodeBytes = (maxILine + 1) * CacheLine
	limits.Patterns = []PatternSpec{{Kind: Scan, Bytes: regionGap, Stride: regionGap, Weight: 1}}
	if err := limits.Validate(); err != nil {
		t.Errorf("Validate rejected params at the width limits: %v", err)
	}
}

func TestGenerateErrors(t *testing.T) {
	p, _ := ByName("mcf")
	if _, err := Generate(p, 0); err == nil {
		t.Error("Generate accepted n=0")
	}
	// Rejected before the op slice is allocated: the last Stream address
	// would pass maxAddr.
	tooLong := int((maxAddr-uint64(len(p.Patterns)+1)*regionGap)/CacheLine) + 1
	if _, err := Generate(p, tooLong); err == nil || !strings.Contains(err.Error(), "48-bit address space") {
		t.Errorf("Generate(%d µops) error %v, want an address-space overflow", tooLong, err)
	}
	p.Name = ""
	if _, err := Generate(p, 100); err == nil {
		t.Error("Generate accepted invalid params")
	}
}

// Property: generated dependency distances never exceed the op index and
// traces have exactly the requested length.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, rawLen uint16) bool {
		n := int(rawLen)%3000 + 1
		p, _ := ByName("astar")
		p.Seed = seed
		tr, err := Generate(p, n)
		if err != nil || tr.Len() != n {
			return false
		}
		for i, op := range tr.Ops {
			if int(op.Dep1()) > i || int(op.Dep2()) > i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
