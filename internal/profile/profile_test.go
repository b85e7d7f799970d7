package profile

import (
	"math"
	"testing"
	"testing/quick"

	"mcbench/internal/trace"
)

func mkParams(name string, seed int64) trace.Params {
	return trace.Params{
		Name:        name,
		LoadFrac:    0.25,
		StoreFrac:   0.10,
		BranchFrac:  0.12,
		FPFrac:      0.08,
		DepMean:     8,
		LoadDepFrac: 0.5,
		BranchBias:  0.9,
		CodeBytes:   16 << 10,
		Patterns:    []trace.PatternSpec{{Kind: trace.HotSet, Bytes: 64 << 10, Weight: 1}},
		Seed:        seed,
	}
}

func TestComputeBasics(t *testing.T) {
	tr := trace.MustGenerate(mkParams("basics", 1), 50000)
	p := MustCompute(tr)

	if p.Ops != 50000 {
		t.Fatalf("Ops = %d", p.Ops)
	}
	// Measured mix must be near the generator parameters.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"load", p.LoadFrac, 0.25},
		{"store", p.StoreFrac, 0.10},
		{"branch", p.BranchFrac, 0.12},
		{"fp", p.FPFrac, 0.08},
	} {
		if math.Abs(c.got-c.want) > 0.01 {
			t.Errorf("%s frac = %.3f, want ~%.3f", c.name, c.got, c.want)
		}
	}
	if p.CallFrac != 0 {
		t.Errorf("CallFrac = %g on a call-free trace", p.CallFrac)
	}
	if p.MemRefs == 0 || p.DataLines == 0 || p.CodeLines == 0 {
		t.Error("footprints empty")
	}
	// A 64 kB hot set spans at most 1024 lines (plus nothing else).
	if p.DataLines > 1024 {
		t.Errorf("DataLines = %d exceeds the 64 kB working set", p.DataLines)
	}
	// Biased branches: taken rate should not be extreme, transition rate
	// in (0,1).
	if p.TransitionRate <= 0 || p.TransitionRate >= 1 {
		t.Errorf("TransitionRate = %g", p.TransitionRate)
	}
	if p.BranchSites == 0 || p.BranchSites > 64 {
		t.Errorf("BranchSites = %d", p.BranchSites)
	}
}

func TestReuseHistogramAccountsAllRefs(t *testing.T) {
	tr := trace.MustGenerate(mkParams("acct", 2), 30000)
	p := MustCompute(tr)
	var total uint64
	for _, c := range p.ReuseHist {
		total += c
	}
	if total != uint64(p.MemRefs) {
		t.Fatalf("histogram total %d != mem refs %d", total, p.MemRefs)
	}
}

// A pure stream has no reuse: every access is a cold miss.
func TestStreamAllCold(t *testing.T) {
	params := mkParams("stream", 3)
	params.Patterns = []trace.PatternSpec{{Kind: trace.Stream, Weight: 1}}
	tr := trace.MustGenerate(params, 20000)
	p := MustCompute(tr)
	if p.ColdMisses != uint64(p.MemRefs) {
		t.Fatalf("stream: %d cold of %d refs; want all cold", p.ColdMisses, p.MemRefs)
	}
	if got := p.MissRatio(1 << 20); got != 1 {
		t.Errorf("stream MissRatio = %g, want 1 for any cache size", got)
	}
	// Streams are sequential: the spatial-locality feature must see it.
	if p.SeqFrac < 0.95 {
		t.Errorf("stream SeqFrac = %g, want ~1", p.SeqFrac)
	}
}

// A tiny hot set fits everywhere: after the cold start, every access hits
// short distances and the estimated miss ratio of any reasonable cache is
// near the cold-miss floor.
func TestHotSetShortDistances(t *testing.T) {
	params := mkParams("hot", 4)
	params.Patterns = []trace.PatternSpec{{Kind: trace.HotSet, Bytes: 4 << 10, Weight: 1}}
	tr := trace.MustGenerate(params, 30000)
	p := MustCompute(tr)
	if p.DataLines > 64 {
		t.Fatalf("4 kB hot set touched %d lines", p.DataLines)
	}
	if got := p.MissRatio(128); got > float64(p.ColdMisses)/float64(p.MemRefs)+0.01 {
		t.Errorf("hot set MissRatio(128 lines) = %g, want near cold floor %g",
			got, float64(p.ColdMisses)/float64(p.MemRefs))
	}
}

// A cyclic scan over R lines thrashes LRU caches smaller than R (every
// access misses) and fits caches larger than R (every access hits after
// the first sweep). The stack-distance histogram must resolve this edge.
func TestScanThrashingEdge(t *testing.T) {
	const regionBytes = 32 << 10 // 512 lines
	params := mkParams("scan", 5)
	params.Patterns = []trace.PatternSpec{{Kind: trace.Scan, Bytes: regionBytes, Weight: 1}}
	tr := trace.MustGenerate(params, 60000)
	p := MustCompute(tr)

	lines := regionBytes / trace.CacheLine
	small := p.MissRatio(lines / 2)
	big := p.MissRatio(lines * 2)
	if small < 0.95 {
		t.Errorf("scan in half-size cache: MissRatio = %g, want ~1", small)
	}
	if big > 0.15 {
		t.Errorf("scan in double-size cache: MissRatio = %g, want near 0", big)
	}
}

// MissRatio must be monotonically non-increasing in the cache size.
func TestMissRatioMonotone(t *testing.T) {
	tr := trace.MustGenerate(mkParams("mono", 6), 30000)
	p := MustCompute(tr)
	prev := 1.1
	for shift := 4; shift <= 20; shift++ {
		r := p.MissRatio(1 << shift)
		if r > prev+1e-12 {
			t.Fatalf("MissRatio not monotone at %d lines: %g after %g", 1<<shift, r, prev)
		}
		prev = r
	}
}

// Feature vectors: stable length, aligned names, deterministic.
func TestFeaturesShape(t *testing.T) {
	tr := trace.MustGenerate(mkParams("feat", 7), 20000)
	p := MustCompute(tr)
	f1, f2 := p.Features(), p.Features()
	if len(f1) != len(FeatureNames()) {
		t.Fatalf("features %d, names %d", len(f1), len(FeatureNames()))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("Features not deterministic")
		}
		if math.IsNaN(f1[i]) || math.IsInf(f1[i], 0) {
			t.Fatalf("feature %s = %g", FeatureNames()[i], f1[i])
		}
	}
}

// Distinct access patterns must be separable in feature space: a stream,
// a hot set and a pointer chase produce pairwise distant vectors.
func TestFeaturesSeparatePatterns(t *testing.T) {
	kinds := []trace.PatternKind{trace.Stream, trace.HotSet, trace.Chase}
	var feats [][]float64
	for i, k := range kinds {
		params := mkParams(k.String(), int64(10+i))
		params.Patterns = []trace.PatternSpec{{Kind: k, Bytes: 256 << 10, Weight: 1}}
		feats = append(feats, MustCompute(trace.MustGenerate(params, 30000)).Features())
	}
	for i := 0; i < len(feats); i++ {
		for j := i + 1; j < len(feats); j++ {
			d := 0.0
			for k := range feats[i] {
				d += math.Abs(feats[i][k] - feats[j][k])
			}
			if d < 0.5 {
				t.Errorf("%v and %v features nearly identical (L1 distance %g)",
					kinds[i], kinds[j], d)
			}
		}
	}
}

func TestComputeRejectsEmpty(t *testing.T) {
	if _, err := Compute(&trace.Trace{Name: "empty"}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Compute(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

// Property: the Fenwick tree matches a naive prefix-sum oracle.
func TestFenwickProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 64
		fen := newFenwick(n)
		naive := make([]int, n+1)
		for _, o := range ops {
			pos := int(o%n) + 1
			delta := 1
			if o%3 == 0 {
				delta = -1
			}
			fen.add(pos, delta)
			naive[pos] += delta
		}
		for i := 0; i <= n; i++ {
			want := 0
			for j := 1; j <= i; j++ {
				want += naive[j]
			}
			if fen.prefixSum(i) != want {
				return false
			}
		}
		// Spot-check range sums.
		for lo := 1; lo < n; lo += 7 {
			for hi := lo; hi <= n; hi += 11 {
				want := 0
				for j := lo; j <= hi; j++ {
					want += naive[j]
				}
				if fen.rangeSum(lo, hi) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: bucketOf is monotone and in range.
func TestBucketOfProperty(t *testing.T) {
	prev := 0
	for d := 0; d < 1<<23; d = d*2 + 1 {
		b := bucketOf(d)
		if b < 0 || b >= ReuseBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", d, b)
		}
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d", d)
		}
		prev = b
	}
}

// The stack-distance implementation must agree with a naive O(n²) oracle
// on a small synthetic reference stream.
func TestStackDistanceAgainstOracle(t *testing.T) {
	params := mkParams("oracle", 9)
	params.Patterns = []trace.PatternSpec{
		{Kind: trace.HotSet, Bytes: 2 << 10, Weight: 1},
		{Kind: trace.Scan, Bytes: 4 << 10, Weight: 1},
	}
	tr := trace.MustGenerate(params, 4000)
	p := MustCompute(tr)

	// Oracle: replay the memory reference stream.
	var hist [ReuseBuckets]uint64
	var refs []uint64
	for _, op := range tr.Ops {
		if op.Kind == trace.Load || op.Kind == trace.Store {
			refs = append(refs, op.Addr()/trace.CacheLine)
		}
	}
	lastPos := map[uint64]int{}
	for i, line := range refs {
		if last, ok := lastPos[line]; ok {
			distinct := map[uint64]struct{}{}
			for j := last + 1; j < i; j++ {
				distinct[refs[j]] = struct{}{}
			}
			hist[bucketOf(len(distinct))]++
		} else {
			hist[ReuseBuckets-1]++
		}
		lastPos[line] = i
	}
	if hist != p.ReuseHist {
		t.Fatalf("reuse histogram mismatch:\nfast:   %v\noracle: %v", p.ReuseHist, hist)
	}
}
