// Package sampling implements the workload sampling methods compared in
// the paper (Sections III and VI): simple random sampling, balanced
// random sampling, benchmark stratification and workload stratification,
// together with the empirical confidence machinery used to evaluate them
// and the MPKI-based benchmark classification of Table IV.
//
// All samplers draw workload indices into a fixed population and return
// estimator weights. The weights are chosen so that, for values v in the
// metric's CLT domain (per-workload throughputs t(w) or differences
// d(w)), the estimate sum(weight_i * v_i) is the method's throughput
// estimator: a plain mean for the random methods, the stratified weighted
// mean of formula (9) for the stratified methods.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"mcbench/internal/stats"
	"mcbench/internal/workload"
)

// Sampler draws weighted workload samples from a population. A sampler
// keeps scratch state between draws, so, like the *rand.Rand it draws
// from, it is not safe for concurrent use.
type Sampler interface {
	// Name identifies the method.
	Name() string
	// Draw appends a sample of w workload indices (repeats allowed) to
	// idx and their estimator weights, which sum to 1, to weights, and
	// returns both. Passing the previous draw's slices cut to length 0
	// reuses their storage.
	Draw(rng *rand.Rand, w int, idx []int, weights []float64) ([]int, []float64)
}

// ---------------------------------------------------------------------------
// Simple random sampling

type simpleRandom struct {
	n int
}

// NewSimpleRandom samples uniformly with replacement from a population of
// n workloads (Section III).
func NewSimpleRandom(n int) Sampler {
	if n <= 0 {
		panic("sampling: empty population")
	}
	return &simpleRandom{n: n}
}

func (s *simpleRandom) Name() string { return "random" }

func (s *simpleRandom) Draw(rng *rand.Rand, w int, idx []int, weights []float64) ([]int, []float64) {
	for i := 0; i < w; i++ {
		idx = append(idx, rng.Intn(s.n))
	}
	return idx, appendEqualWeights(weights, w)
}

func appendEqualWeights(weights []float64, w int) []float64 {
	for i := 0; i < w; i++ {
		weights = append(weights, 1/float64(w))
	}
	return weights
}

// ---------------------------------------------------------------------------
// Balanced random sampling

type balancedRandom struct {
	pop  *workload.Population
	fill []int // the last draw's benchmark slots, kept for their storage
	perm []int // the last draw's benchmark permutation, likewise
}

// NewBalancedRandom samples workloads such that every benchmark occurs
// (as nearly as possible) the same number of times across the sample
// (Section VI-A). It requires the full workload population, since the
// construction composes workloads freely.
func NewBalancedRandom(pop *workload.Population) Sampler {
	if pop == nil || pop.Size() == 0 {
		panic("sampling: nil or empty population")
	}
	return &balancedRandom{pop: pop}
}

func (s *balancedRandom) Name() string { return "bal-random" }

func (s *balancedRandom) Draw(rng *rand.Rand, w int, idx []int, weights []float64) ([]int, []float64) {
	b, k := s.pop.B, s.pop.K
	slots := w * k
	// Fill slots with each benchmark repeated slots/b times; the
	// remainder goes to a random subset of benchmarks.
	fill := s.fill[:0]
	base := slots / b
	for bench := 0; bench < b; bench++ {
		for c := 0; c < base; c++ {
			fill = append(fill, bench)
		}
	}
	for _, bench := range s.permute(rng, b)[:slots-base*b] {
		fill = append(fill, bench)
	}
	rng.Shuffle(len(fill), func(i, j int) { fill[i], fill[j] = fill[j], fill[i] })
	s.fill = fill

	for i := 0; i < w; i++ {
		wl := workload.Workload(fill[i*k : (i+1)*k])
		pos := s.pop.IndexOf(wl)
		if pos < 0 {
			panic(fmt.Sprintf("sampling: balanced workload %v not in population", wl))
		}
		idx = append(idx, pos)
	}
	return idx, appendEqualWeights(weights, w)
}

// permute returns rng.Perm(n) built in the sampler's reused buffer: the
// same Intn(i+1) calls, in the same order, so the random stream and the
// permutation are exactly math/rand's.
func (s *balancedRandom) permute(rng *rand.Rand, n int) []int {
	m := slices.Grow(s.perm[:0], n)[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	s.perm = m
	return m
}

// ---------------------------------------------------------------------------
// Stratified sampling (common machinery)

// stratified samples Wh workloads from each stratum with proportional
// allocation and weights Nh/(N*Wh) (Section VI-B, formula 9).
type stratified struct {
	name   string
	strata [][]int // population indices per stratum
	total  int
	// alloc is allocate(allocW), kept because a Monte-Carlo run draws
	// many samples of one size in a row.
	allocW int
	alloc  []int
}

func newStratified(name string, strata [][]int) *stratified {
	total := 0
	var keep [][]int
	for _, s := range strata {
		if len(s) == 0 {
			continue
		}
		keep = append(keep, s)
		total += len(s)
	}
	if total == 0 {
		panic("sampling: empty strata")
	}
	return &stratified{name: name, strata: keep, total: total}
}

// NumStrata returns the number of (non-empty) strata.
func (s *stratified) NumStrata() int { return len(s.strata) }

func (s *stratified) Name() string { return s.name }

// allocate distributes w draws across strata proportionally to their
// sizes, with at least one draw per stratum (stratified sampling cannot
// draw fewer workloads than strata; callers should use w >= NumStrata).
func (s *stratified) allocate(w int) []int {
	l := len(s.strata)
	if w < l {
		w = l
	}
	alloc := make([]int, l)
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, l)
	used := 0
	for i, st := range s.strata {
		share := float64(w) * float64(len(st)) / float64(s.total)
		alloc[i] = int(share)
		if alloc[i] < 1 {
			alloc[i] = 1
		}
		fracs[i] = frac{i, share - float64(int(share))}
		used += alloc[i]
	}
	// Largest-remainder correction toward exactly w draws.
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for j := 0; used < w; j = (j + 1) % l {
		alloc[fracs[j].i]++
		used++
	}
	for j := l - 1; used > w; j-- {
		if j < 0 {
			j = l - 1
		}
		i := fracs[j].i
		if alloc[i] > 1 {
			alloc[i]--
			used--
		}
	}
	return alloc
}

func (s *stratified) Draw(rng *rand.Rand, w int, idx []int, weights []float64) ([]int, []float64) {
	if s.alloc == nil || s.allocW != w {
		s.alloc, s.allocW = s.allocate(w), w
	}
	for h, st := range s.strata {
		wh := s.alloc[h]
		weight := float64(len(st)) / float64(s.total) / float64(wh)
		for c := 0; c < wh; c++ {
			idx = append(idx, st[rng.Intn(len(st))])
			weights = append(weights, weight)
		}
	}
	return idx, weights
}

// ---------------------------------------------------------------------------
// Benchmark stratification

// NewBenchmarkStrata stratifies the population by the class-occurrence
// signature of each workload (Section VI-B-1): workloads with the same
// number of benchmarks of each class form one stratum. class[b] gives the
// class of benchmark b, with numClasses classes.
func NewBenchmarkStrata(pop *workload.Population, class []int, numClasses int) Sampler {
	if len(class) != pop.B {
		panic("sampling: class table size mismatch")
	}
	groups := map[string][]int{}
	var order []string
	for i, w := range pop.Workloads {
		counts := workload.ClassCounts(w, class, numClasses)
		key := fmt.Sprint(counts)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	strata := make([][]int, 0, len(order))
	for _, key := range order {
		strata = append(strata, groups[key])
	}
	return newStratified("bench-strata", strata)
}

// ---------------------------------------------------------------------------
// Workload stratification

// WorkloadStrataConfig holds the two knobs of the paper's algorithm.
type WorkloadStrataConfig struct {
	// MinSize (WT) is the minimum number of workloads per stratum.
	MinSize int
	// MaxStdDev (TSD) closes a stratum once its standard deviation of
	// d(w) exceeds this threshold (checked only after MinSize).
	MaxStdDev float64
}

// DefaultWorkloadStrataConfig returns the parameters used in Figure 6
// (TSD = 0.001, WT = 50).
func DefaultWorkloadStrataConfig() WorkloadStrataConfig {
	return WorkloadStrataConfig{MinSize: 50, MaxStdDev: 0.001}
}

// NewWorkloadStrata implements the paper's main proposal (Section
// VI-B-2): strata are built directly from the per-workload differences
// d(w) measured with the fast approximate simulator. Workloads are sorted
// by d(w) and split greedily: a stratum closes once it holds at least
// MinSize workloads and its standard deviation exceeds MaxStdDev.
//
// The resulting sampler is valid only for the pair of microarchitectures
// and the metric that produced d — as the paper stresses.
func NewWorkloadStrata(d []float64, cfg WorkloadStrataConfig) Sampler {
	if len(d) == 0 {
		panic("sampling: no differences")
	}
	if cfg.MinSize < 1 {
		cfg.MinSize = 1
	}
	order := make([]int, len(d))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d[order[a]] < d[order[b]] })

	var strata [][]int
	var cur []int
	var mean, m2 float64 // Welford running variance
	for _, i := range order {
		// Close the stratum if it is big enough and adding would keep
		// its spread above the threshold.
		if len(cur) >= cfg.MinSize {
			variance := m2 / float64(len(cur))
			if math.Sqrt(variance) > cfg.MaxStdDev {
				strata = append(strata, cur)
				cur = nil
				mean, m2 = 0, 0
			}
		}
		cur = append(cur, i)
		delta := d[i] - mean
		mean += delta / float64(len(cur))
		m2 += delta * (d[i] - mean)
	}
	if len(cur) > 0 {
		strata = append(strata, cur)
	}
	return newStratified("workload-strata", strata)
}

// NumStrata reports the stratum count of a stratified sampler, or 1 for
// non-stratified samplers.
func NumStrata(s Sampler) int {
	if st, ok := s.(*stratified); ok {
		return st.NumStrata()
	}
	return 1
}

// ---------------------------------------------------------------------------
// Empirical confidence

// EmpiricalConfidence estimates, by Monte-Carlo over trials sample draws,
// the probability that the sampler's estimate of the mean of values is
// positive — the experimental degree of confidence of Figures 3, 6 and 7.
// values are in the metric's CLT domain (use Metric.Diffs).
func EmpiricalConfidence(rng *rand.Rand, values []float64, s Sampler, w, trials int) float64 {
	if trials <= 0 {
		panic("sampling: non-positive trial count")
	}
	hits := 0
	idx, weights := make([]int, 0, w), make([]float64, 0, w)
	for t := 0; t < trials; t++ {
		idx, weights = s.Draw(rng, w, idx[:0], weights[:0])
		est := 0.0
		for i, j := range idx {
			est += weights[i] * values[j]
		}
		if est > 0 {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// ModelConfidence evaluates the paper's analytical model (equation 5) on
// the same values: the confidence from the coefficient of variation of
// the full population under simple random sampling of size w.
func ModelConfidence(values []float64, w int) float64 {
	return stats.Confidence(stats.CoefVar(values), w)
}

// RequiredSampleSize applies formula (8) to population differences.
func RequiredSampleSize(values []float64) int {
	return stats.RequiredSampleSize(stats.CoefVar(values))
}
