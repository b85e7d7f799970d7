package mcbench

import (
	"math/rand"

	"mcbench/internal/cluster"
	"mcbench/internal/sampling"
	"mcbench/internal/trace"
	"mcbench/internal/workload"
)

// Population is a concrete set of multiprogrammed workloads under study
// (each workload a multiset of benchmark indices into Benchmarks()).
type Population = workload.Population

// EnumerateWorkloads builds the full population of cores-sized multisets
// over the fixed 22-benchmark suite — e.g. 253 workloads for 2 cores,
// 12650 for 4. For other benchmark sources use a Lab's Population, which
// also knows when to sample instead.
func EnumerateWorkloads(cores int) *Population {
	return workload.Enumerate(len(trace.SuiteNames()), cores)
}

// WorkloadNames expands a population over the fixed suite into
// benchmark-name workloads, ready for Sweep.
func WorkloadNames(p *Population) [][]string {
	names := trace.SuiteNames()
	out := make([][]string, len(p.Workloads))
	for i, w := range p.Workloads {
		out[i] = w.Names(names)
	}
	return out
}

// Sampler draws workload samples from a population; the four
// implementations mirror the paper's Section VI methods.
type Sampler = sampling.Sampler

// WorkloadStrataConfig parameterises workload stratification (the
// paper's WT and TSD).
type WorkloadStrataConfig = sampling.WorkloadStrataConfig

// NumClasses is the number of memory-intensity classes of the Table IV
// classification.
const NumClasses = sampling.NumClasses

// NewSimpleRandom samples workloads uniformly from a population of n.
func NewSimpleRandom(n int) Sampler { return sampling.NewSimpleRandom(n) }

// NewBalancedRandom samples uniformly while balancing per-benchmark
// occurrence counts (Section VI-B-1); it requires the full population.
func NewBalancedRandom(pop *Population) Sampler { return sampling.NewBalancedRandom(pop) }

// NewBenchmarkStrata stratifies workloads by their benchmark-class
// signature (Section VI-A). classes assigns each benchmark a class in
// [0, numClasses); Lab.Classes supplies the measured MPKI classes.
func NewBenchmarkStrata(pop *Population, classes []int, numClasses int) Sampler {
	return sampling.NewBenchmarkStrata(pop, classes, numClasses)
}

// DefaultWorkloadStrataConfig returns the paper's operating point
// (WT=50, TSD=0.001).
func DefaultWorkloadStrataConfig() WorkloadStrataConfig {
	return sampling.DefaultWorkloadStrataConfig()
}

// NewWorkloadStrata stratifies workloads by their fast-simulator d(w)
// values (Section VI-B-2, the paper's main proposal).
func NewWorkloadStrata(d []float64, cfg WorkloadStrataConfig) Sampler {
	return sampling.NewWorkloadStrata(d, cfg)
}

// NumStrata reports a stratified sampler's stratum count (1 for
// unstratified samplers).
func NumStrata(s Sampler) int { return sampling.NumStrata(s) }

// EmpiricalConfidence Monte-Carlos the degree of confidence that the
// weighted sample mean of values has the correct sign, over trials draws
// of w workloads.
func EmpiricalConfidence(rng *rand.Rand, values []float64, s Sampler, w, trials int) float64 {
	return sampling.EmpiricalConfidence(rng, values, s, w, trials)
}

// ---------------------------------------------------------------------------
// Cluster-based selection (the Section II-B survey methods).

// Clusters is a k-means clustering result.
type Clusters = cluster.Result

// NormalizeFeatures z-scores a feature matrix column-wise.
func NormalizeFeatures(points [][]float64) [][]float64 { return cluster.Normalize(points) }

// BestK clusters points with k-means for k in [kMin, kMax] and returns
// the silhouette-best result.
func BestK(rng *rand.Rand, points [][]float64, kMin, kMax int) (*Clusters, error) {
	return cluster.BestK(rng, points, kMin, kMax)
}

// SortedAssign relabels cluster assignments canonically (clusters
// numbered by first appearance).
func SortedAssign(r *Clusters) []int { return cluster.SortedAssign(r) }

// NewClusterBenchStrata derives benchmark classes by k-means on the
// feature matrix (Vandierendonck & Seznec style) and returns benchmark
// stratification over them, plus the class assignment.
func NewClusterBenchStrata(rng *rand.Rand, pop *Population, benchFeatures [][]float64, k int) (Sampler, []int, error) {
	return sampling.NewClusterBenchStrata(rng, pop, benchFeatures, k)
}

// WorkloadFeatures lifts per-benchmark features to per-workload features
// (the input to representative workload clustering).
func WorkloadFeatures(pop *Population, benchFeatures [][]float64) ([][]float64, error) {
	return sampling.WorkloadFeatures(pop, benchFeatures)
}

// NewRepresentative clusters the workload feature matrix and samples
// k-means medoids weighted by cluster size (Van Biesbrouck, Eeckhout &
// Calder style).
func NewRepresentative(features [][]float64, maxIter int) Sampler {
	return sampling.NewRepresentative(features, maxIter)
}
