package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mcbench/internal/stats"
)

// pinCase is one sampler of the output pin, with the values its
// confidence is measured on, the sample sizes and the trial count.
type pinCase struct {
	name   string
	s      Sampler
	values []float64
	ws     []int
	trials int
}

// nearTie shifts d so its mean is a small positive fraction of its
// spread: confidences then land strictly between 0 and 1, where every
// drawn index can move the hit count.
func nearTie(d []float64) []float64 {
	m := stats.Mean(d)
	for i := range d {
		d[i] -= m * 0.95
	}
	return d
}

// pinCases builds the six samplers over the 2-core population of 22
// benchmarks, plus balanced random sampling over the 4-core one.
func pinCases(t *testing.T) []pinCase {
	pop2, d2 := synthPopulation(22, 2, 9, 0.03)
	pop4, d4 := synthPopulation(22, 4, 9, 0.03)
	nearTie(d2)
	nearTie(d4)
	frng := rand.New(rand.NewSource(2013))
	feats := make([][]float64, 22)
	for b := range feats {
		feats[b] = []float64{frng.Float64(), frng.Float64() * 10, frng.NormFloat64(), float64(b % 3)}
	}
	class := make([]int, 22)
	for b := range class {
		class[b] = b % NumClasses
	}
	cs, _, err := NewClusterBenchStrata(rand.New(rand.NewSource(7)), pop2, feats, NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := WorkloadFeatures(pop2, feats)
	if err != nil {
		t.Fatal(err)
	}
	ws := []int{3, 10, 40}
	return []pinCase{
		{"random", NewSimpleRandom(len(d2)), d2, ws, 300},
		{"bal-random/22x2", NewBalancedRandom(pop2), d2, ws, 300},
		{"bal-random/22x4", NewBalancedRandom(pop4), d4, []int{5, 30, 100}, 150},
		{"bench-strata", NewBenchmarkStrata(pop2, class, NumClasses), d2, ws, 300},
		{"cluster-strata", cs, d2, ws, 300},
		{"workload-strata", NewWorkloadStrata(d2, WorkloadStrataConfig{MinSize: 20, MaxStdDev: 0.001}), d2, ws, 300},
		{"workload-cluster", NewRepresentative(wf, 25), d2, []int{3, 10, 25}, 12},
	}
}

func putBits(h io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestSamplerOutputsPinned pins the exact bits of every sampler's output
// on two seeds: the EmpiricalConfidence values over several sample sizes
// and, separately, the indices and weight bits of a run of raw draws. The
// experiments goldens round confidences to three decimals; a changed
// draw order or a reassociated estimator sum cannot pass this.
func TestSamplerOutputsPinned(t *testing.T) {
	want := map[string][2]string{ // confidence digest, draw digest; seed 1 then seed 2
		"random/1":           {"e41810709c172bd3", "e658be2320dafcb2"},
		"random/2":           {"1fbda0d4e303be15", "724ee5fffbf7992b"},
		"bal-random/22x2/1":  {"56b9b6e028f6e8f9", "61f4012e5fd84ae0"},
		"bal-random/22x2/2":  {"cef790afeebabb41", "57d74980ac7d9b3a"},
		"bal-random/22x4/1":  {"3bc6c517cece039d", "b9964de0d8cf5db7"},
		"bal-random/22x4/2":  {"621f1cdedcb1ae9f", "36c822f2ab608466"},
		"bench-strata/1":     {"4ffb3c2050179e3d", "212efcde7d28ce0a"},
		"bench-strata/2":     {"458cf4fa9d4b525c", "cd4d1dbb7208b662"},
		"cluster-strata/1":   {"e80e5f3c1a4472e3", "4e505130d6e3ee9c"},
		"cluster-strata/2":   {"32079263079f9dcc", "864a82256faa9cdc"},
		"workload-strata/1":  {"d4f928a3e1123ee1", "5ad91a94976933ba"},
		"workload-strata/2":  {"f7a360cc8b24cc57", "54f05188f03bb415"},
		"workload-cluster/1": {"f950ab4784fcebfb", "e9a1b3d3a3477044"},
		"workload-cluster/2": {"4923fbafd7d73aa5", "d8eb5461b121dfb3"},
	}
	for _, c := range pinCases(t) {
		for _, seed := range []int64{1, 2} {
			conf := sha256.New()
			rng := rand.New(rand.NewSource(seed))
			for _, w := range c.ws {
				putBits(conf, math.Float64bits(EmpiricalConfidence(rng, c.values, c.s, w, c.trials)))
			}
			draws := sha256.New()
			rng = rand.New(rand.NewSource(seed))
			var idx []int
			var weights []float64
			for _, w := range c.ws {
				for r := 0; r < 3; r++ {
					idx, weights = c.s.Draw(rng, w, idx[:0], weights[:0])
					putBits(draws, uint64(len(idx)))
					for i, j := range idx {
						putBits(draws, uint64(j))
						putBits(draws, math.Float64bits(weights[i]))
					}
				}
			}
			key := fmt.Sprintf("%s/%d", c.name, seed)
			got := [2]string{hex.EncodeToString(conf.Sum(nil))[:16], hex.EncodeToString(draws.Sum(nil))[:16]}
			if got != want[key] {
				t.Errorf("%s: digests %q, want %q", key, got, want[key])
			}
		}
	}
}

// TestEmpiricalConfidenceReusesDraws pins the Monte-Carlo loop's
// allocations: a 400-trial run allocates no more than a 1-trial run plus
// a constant, because the draw slices, the balanced sampler's slots and
// permutation and the stratified allocation are made once and reused.
// Workload clustering builds a k-means result per draw and is not
// pinned.
func TestEmpiricalConfidenceReusesDraws(t *testing.T) {
	for _, c := range pinCases(t) {
		if c.name == "workload-cluster" {
			continue
		}
		rng := rand.New(rand.NewSource(1))
		w := c.ws[len(c.ws)-1]
		one := testing.AllocsPerRun(20, func() { EmpiricalConfidence(rng, c.values, c.s, w, 1) })
		many := testing.AllocsPerRun(5, func() { EmpiricalConfidence(rng, c.values, c.s, w, 400) })
		if many > one+2 {
			t.Errorf("%s: 400 trials allocate %v times, 1 trial %v", c.name, many, one)
		}
	}
}

// TestDrawAppends checks Draw's append contract: what the caller's slices
// already hold stays, and the sample follows it.
func TestDrawAppends(t *testing.T) {
	for _, c := range pinCases(t) {
		w := c.ws[0]
		idx, weights := c.s.Draw(rand.New(rand.NewSource(5)), w, []int{-7}, []float64{-7})
		fresh, freshW := c.s.Draw(rand.New(rand.NewSource(5)), w, nil, nil)
		if idx[0] != -7 || weights[0] != -7 || !slices.Equal(idx[1:], fresh) || !slices.Equal(weights[1:], freshW) {
			t.Errorf("%s: appended draw %v %v, fresh draw %v %v", c.name, idx, weights, fresh, freshW)
		}
	}
}
