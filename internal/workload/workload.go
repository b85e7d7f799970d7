// Package workload provides the combinatorics of multiprogrammed
// workloads: a workload is a multiset of K benchmarks out of B (cores are
// identical and interchangeable and a benchmark may be replicated), so
// the population has C(B+K-1, K) members (Section II of the paper).
package workload

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Saturated is the value PopulationSize reports for populations whose
// exact size does not fit in a uint64.
const Saturated = ^uint64(0)

// PopulationSize returns C(B+K-1, K), the number of distinct workloads of
// K benchmarks drawn with repetition from B. ok is false when the exact
// count overflows uint64, in which case the returned value saturates at
// Saturated. Large benchmark sources (a ScaledSource near B=512 combined
// with large K) reach this territory, so callers must treat the count as
// potentially saturated rather than exact.
func PopulationSize(b, k int) (size uint64, ok bool) {
	if b <= 0 || k <= 0 {
		return 0, true
	}
	return binomial(uint64(b+k-1), uint64(k))
}

// binomial computes C(n, k) in uint64 exactly, saturating (ok=false)
// when the result does not fit.
func binomial(n, k uint64) (uint64, bool) {
	if k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := uint64(0); i < k; i++ {
		// c = c * (n-i) / (i+1) in 128-bit intermediate arithmetic. The
		// running value is always an exact binomial coefficient, so the
		// division is exact; only the final quotient can overflow.
		num := n - i
		den := i + 1
		hi, lo := bits.Mul64(c, num)
		if hi >= den {
			// The quotient needs more than 64 bits: saturate.
			return Saturated, false
		}
		c, _ = bits.Div64(hi, lo, den)
	}
	return c, true
}

// Workload is a multiset of benchmark indices in [0, B), kept sorted.
type Workload []int

// Key returns a canonical string form usable as a map key.
func (w Workload) Key() string {
	parts := make([]string, len(w))
	for i, b := range w {
		parts[i] = strconv.Itoa(b)
	}
	return strings.Join(parts, ",")
}

// Names maps the workload's indices through the benchmark name table.
func (w Workload) Names(names []string) []string {
	out := make([]string, len(w))
	for i, b := range w {
		out[i] = names[b]
	}
	return out
}

// Population is a concrete set of workloads under study: either the full
// enumeration (2 and 4 cores in the paper) or a large uniform sample when
// the full population is impractical (8 cores).
type Population struct {
	B, K      int
	Workloads []Workload
	// An enumerated population resolves a workload by its rank; any
	// other population keys its members in index.
	rank  *ranker
	index map[string]int
}

// Enumerate builds the full population of multisets of K out of B in
// lexicographic order.
func Enumerate(b, k int) *Population {
	if b <= 0 || k <= 0 {
		panic(fmt.Sprintf("workload: Enumerate(%d,%d)", b, k))
	}
	var all []Workload
	cur := make([]int, k)
	var rec func(pos, min int)
	rec = func(pos, min int) {
		if pos == k {
			all = append(all, append(Workload(nil), cur...))
			return
		}
		for v := min; v < b; v++ {
			cur[pos] = v
			rec(pos+1, v)
		}
	}
	rec(0, 0)
	return &Population{B: b, K: k, Workloads: all, rank: newRanker(b, k)}
}

// SampleUniform builds a population of n workloads drawn uniformly at
// random (without replacement) from the full multiset population, for
// cases where enumeration is impractical. Duplicated draws are rejected,
// so n must be at most the population size.
func SampleUniform(rng *rand.Rand, b, k, n int) *Population {
	total, ok := PopulationSize(b, k)
	if ok && uint64(n) > total {
		panic(fmt.Sprintf("workload: sample %d exceeds population %d", n, total))
	}
	seen := make(map[string]bool, n)
	var all []Workload
	for len(all) < n {
		w := Random(rng, b, k)
		key := w.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, w)
	}
	return newPopulation(b, k, all)
}

// FromWorkloads builds a Population from an explicit workload list (e.g.
// the subset of workloads simulated with a detailed simulator). Workloads
// must already be sorted multisets over [0, b).
func FromWorkloads(b, k int, ws []Workload) *Population {
	if b <= 0 || k <= 0 {
		panic(fmt.Sprintf("workload: FromWorkloads(%d,%d)", b, k))
	}
	for _, w := range ws {
		if len(w) != k {
			panic(fmt.Sprintf("workload: workload %v has size %d, want %d", w, len(w), k))
		}
	}
	return newPopulation(b, k, ws)
}

func newPopulation(b, k int, all []Workload) *Population {
	idx := make(map[string]int, len(all))
	var buf []byte
	for i, w := range all {
		buf = appendIndexKey(buf[:0], w)
		idx[string(buf)] = i
	}
	return &Population{B: b, K: k, Workloads: all, index: idx}
}

// appendIndexKey appends the population index key of a sorted workload:
// the uvarint of each member. Uvarints are prefix-free, so the key is
// injective over workloads of any length and any int values (a negative
// index maps to a large uvarint no valid member has).
func appendIndexKey(dst []byte, w Workload) []byte {
	for _, b := range w {
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return dst
}

// stackK is the widest workload IndexOf sorts and keys in stack buffers;
// wider ones still resolve, through heap copies.
const stackK = 16

// Size returns the number of workloads in the population.
func (p *Population) Size() int { return len(p.Workloads) }

// IndexOf returns the position of w in the population, or -1. It does
// not allocate for workloads of up to stackK benchmarks: the Monte-Carlo
// samplers call it for every drawn workload.
func (p *Population) IndexOf(w Workload) int {
	var sorted [stackK]int
	s := append(sorted[:0], w...)
	sort.Ints(s)
	if p.rank != nil {
		return p.rank.index(s)
	}
	var key [stackK * binary.MaxVarintLen64]byte
	if i, ok := p.index[string(appendIndexKey(key[:0], s))]; ok {
		return i
	}
	return -1
}

// ranker ranks sorted workloads in Enumerate's lexicographic order, which
// is also Unrank's. Row pos of prefix, column v, sums over u < v the
// number of multisets of size K-pos-1 over [u, B): the workloads that
// continue a given first pos members with u at position pos. Past a
// member min, a workload with v at position pos therefore follows
// row[v] - row[min] others, and its rank is one such difference per
// position.
type ranker struct {
	b, k   int
	prefix []int // K rows of B+1 columns
}

// newRanker builds the K×(B+1) prefix table of a population small enough
// to enumerate, so every entry fits an int.
func newRanker(b, k int) *ranker {
	r := &ranker{b: b, k: k, prefix: make([]int, k*(b+1))}
	for pos := 0; pos < k; pos++ {
		row := r.prefix[pos*(b+1) : (pos+1)*(b+1)]
		for u := 0; u < b; u++ {
			cnt := uint64(1)
			if k-pos-1 > 0 {
				cnt, _ = PopulationSize(b-u, k-pos-1)
			}
			row[u+1] = row[u] + int(cnt)
		}
	}
	return r
}

// index returns the rank of a sorted workload, or -1 when it has the
// wrong width or a member outside [0, B).
func (r *ranker) index(w []int) int {
	if len(w) != r.k || w[0] < 0 || w[len(w)-1] >= r.b {
		return -1
	}
	rank, min := 0, 0
	for pos, v := range w {
		row := r.prefix[pos*(r.b+1):]
		rank += row[v] - row[min]
		min = v
	}
	return rank
}

// Random draws one workload uniformly from the full multiset population
// (every multiset equally likely). Populations whose size fits an int63
// draw by unranking a uniform rank (the historical path, preserving
// seeded draw sequences); larger — including saturated — populations
// use a rank-free combination sampler, so no geometry panics.
func Random(rng *rand.Rand, b, k int) Workload {
	total, ok := PopulationSize(b, k)
	if !ok || total >= 1<<63 {
		return randomMultiset(rng, b, k)
	}
	rank := uint64(rng.Int63n(int64(total)))
	return Unrank(rank, b, k)
}

// randomMultiset draws a uniform multiset of k values from [0, b) via
// the stars-and-bars bijection: multisets of size k over b values
// correspond one-to-one with k-combinations of [0, b+k-1), which
// Floyd's algorithm samples uniformly without ever touching the
// (possibly > 2^64) population size.
func randomMultiset(rng *rand.Rand, b, k int) Workload {
	n := b + k - 1
	chosen := make(map[int]bool, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t] {
			t = j
		}
		chosen[t] = true
	}
	comb := make([]int, 0, k)
	for v := range chosen {
		comb = append(comb, v)
	}
	sort.Ints(comb)
	w := make(Workload, k)
	for i, c := range comb {
		w[i] = c - i // undo the stars-and-bars offset; result stays sorted
	}
	return w
}

// Unrank returns the workload at the given lexicographic rank (matching
// Enumerate order).
func Unrank(rank uint64, b, k int) Workload {
	w := make(Workload, 0, k)
	min := 0
	for pos := 0; pos < k; pos++ {
		for v := min; v < b; v++ {
			// Workloads starting (at this position) with v: multisets of
			// size k-pos-1 from values >= v. The counts are bounded by the
			// caller-checked total, so they cannot saturate here.
			cnt, _ := PopulationSize(b-v, k-pos-1)
			if k-pos-1 == 0 {
				cnt = 1
			}
			if rank < cnt {
				w = append(w, v)
				min = v
				break
			}
			rank -= cnt
		}
	}
	if len(w) != k {
		panic("workload: Unrank rank out of range")
	}
	return w
}

// Occurrences counts how many times each benchmark appears across the
// given workloads.
func Occurrences(ws []Workload, b int) []int {
	counts := make([]int, b)
	for _, w := range ws {
		for _, bench := range w {
			counts[bench]++
		}
	}
	return counts
}

// ClassCounts returns, for a workload and a benchmark-class assignment,
// the number of occurrences of each class (the stratum signature of
// benchmark stratification).
func ClassCounts(w Workload, class []int, numClasses int) []int {
	counts := make([]int, numClasses)
	for _, bench := range w {
		counts[class[bench]]++
	}
	return counts
}
