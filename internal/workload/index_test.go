package workload

import (
	"math/rand"
	"testing"
)

// shuffled returns a permuted copy of w: IndexOf must not depend on the
// order a caller lists a workload's benchmarks in.
func shuffled(rng *rand.Rand, w Workload) Workload {
	s := append(Workload(nil), w...)
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// TestIndexOfInvertsUnrank pins the exactness of the population lookup
// over whole enumerations, including benchmark indices past one byte
// (B > 255) and workloads wider than the stack buffers (K > 16).
func TestIndexOfInvertsUnrank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ b, k int }{{22, 4}, {300, 2}, {3, 17}, {2, 40}, {5, 16}} {
		p := Enumerate(c.b, c.k)
		for r := range p.Workloads {
			if got := p.IndexOf(shuffled(rng, Unrank(uint64(r), c.b, c.k))); got != r {
				t.Fatalf("B=%d K=%d: IndexOf(shuffle(Unrank(%d))) = %d", c.b, c.k, r, got)
			}
		}
	}
}

// TestIndexOfSampledPopulation checks the lookup on a uniform sample:
// every member resolves to its position, and workloads outside the
// sample, of the wrong width, or with negative or out-of-range indices
// resolve to -1.
func TestIndexOfSampledPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ b, k, n int }{{22, 8, 500}, {300, 5, 500}, {40, 20, 200}} {
		p := SampleUniform(rng, c.b, c.k, c.n)
		member := make(map[string]bool, p.Size())
		for i, w := range p.Workloads {
			member[w.Key()] = true
			if got := p.IndexOf(shuffled(rng, w)); got != i {
				t.Fatalf("B=%d K=%d: member %v at %d, IndexOf = %d", c.b, c.k, w, i, got)
			}
		}
		for misses := 0; misses < 50; {
			w := Random(rng, c.b, c.k)
			if member[w.Key()] {
				continue
			}
			misses++
			if got := p.IndexOf(w); got != -1 {
				t.Fatalf("B=%d K=%d: non-member %v has IndexOf %d", c.b, c.k, w, got)
			}
		}
		w := p.Workloads[0]
		for _, bad := range []Workload{
			nil,
			w[:c.k-1],
			append(append(Workload(nil), w...), w[0]),
			append(Workload{-1}, w[1:]...),
			append(Workload{-1 << 62}, w[1:]...),
			append(append(Workload(nil), w[:c.k-1]...), c.b),
			append(append(Workload(nil), w[:c.k-1]...), 1<<40),
		} {
			if got := p.IndexOf(bad); got != -1 {
				t.Errorf("B=%d K=%d: IndexOf(%v) = %d, want -1", c.b, c.k, bad, got)
			}
		}
	}
}

// TestIndexOfDoesNotAllocate pins the lookup the Monte-Carlo samplers
// make per drawn workload to zero allocations at K <= 16. An enumerated
// population resolves by rank and builds no key map at all.
func TestIndexOfDoesNotAllocate(t *testing.T) {
	for _, c := range []struct{ b, k int }{{22, 4}, {300, 2}, {4, 16}} {
		p := Enumerate(c.b, c.k)
		if p.index != nil {
			t.Errorf("B=%d K=%d: Enumerate built a key map of %d entries", c.b, c.k, len(p.index))
		}
		q := shuffled(rand.New(rand.NewSource(1)), p.Workloads[p.Size()/2])
		if a := testing.AllocsPerRun(100, func() { p.IndexOf(q) }); a != 0 {
			t.Errorf("B=%d K=%d: IndexOf allocates %v times per call", c.b, c.k, a)
		}
	}
}
