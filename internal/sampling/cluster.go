package sampling

// Cluster-analysis-based selection methods surveyed in Section II-B of
// the paper, built on package cluster:
//
//   - Vandierendonck & Seznec [6] derive benchmark classes by cluster
//     analysis instead of a manual MPKI split; NewClusterBenchStrata
//     clusters benchmark feature vectors (package profile) and feeds the
//     classes to the benchmark-stratification sampler of Section VI-B-1.
//
//   - Van Biesbrouck, Eeckhout & Calder [7] cluster the *workloads*
//     directly on microarchitecture-independent profile data and simulate
//     one representative per cluster; NewRepresentative implements this
//     with k-means medoids weighted by cluster size.

import (
	"fmt"
	"math/rand"

	"mcbench/internal/cluster"
	"mcbench/internal/workload"
)

// BenchmarkClasses clusters per-benchmark feature vectors into k classes
// and returns the class of each benchmark. Features are z-scored
// internally; rows must align with the population's benchmark indices.
func BenchmarkClasses(rng *rand.Rand, benchFeatures [][]float64, k int) ([]int, error) {
	if k < 1 || k > len(benchFeatures) {
		return nil, fmt.Errorf("sampling: %d classes for %d benchmarks", k, len(benchFeatures))
	}
	res, err := cluster.KMeans(rng, cluster.Normalize(benchFeatures), k, 100)
	if err != nil {
		return nil, err
	}
	return cluster.SortedAssign(res), nil
}

// NewClusterBenchStrata builds a benchmark-stratification sampler whose
// classes come from cluster analysis of benchmark features rather than a
// manual classification (the fully-automatic variant of Section II-B).
func NewClusterBenchStrata(rng *rand.Rand, pop *workload.Population, benchFeatures [][]float64, k int) (Sampler, []int, error) {
	if len(benchFeatures) != pop.B {
		return nil, nil, fmt.Errorf("sampling: %d feature rows for %d benchmarks", len(benchFeatures), pop.B)
	}
	classes, err := BenchmarkClasses(rng, benchFeatures, k)
	if err != nil {
		return nil, nil, err
	}
	s := NewBenchmarkStrata(pop, classes, k)
	if st, ok := s.(*stratified); ok {
		st.name = "cluster-strata"
	}
	return s, classes, nil
}

// WorkloadFeatures builds one order-invariant feature vector per workload
// in the population: the element-wise mean and maximum of the member
// benchmarks' feature vectors, concatenated. Mean captures the aggregate
// resource demand; max captures the most aggressive co-runner, which is
// what determines LLC contention.
func WorkloadFeatures(pop *workload.Population, benchFeatures [][]float64) ([][]float64, error) {
	if len(benchFeatures) != pop.B {
		return nil, fmt.Errorf("sampling: %d feature rows for %d benchmarks", len(benchFeatures), pop.B)
	}
	if pop.B == 0 || len(benchFeatures[0]) == 0 {
		return nil, fmt.Errorf("sampling: empty features")
	}
	dim := len(benchFeatures[0])
	out := make([][]float64, pop.Size())
	for w, wl := range pop.Workloads {
		v := make([]float64, 2*dim)
		for slot, b := range wl {
			bf := benchFeatures[b]
			for j, x := range bf {
				v[j] += x / float64(len(wl))
				if slot == 0 || x > v[dim+j] {
					v[dim+j] = x
				}
			}
		}
		out[w] = v
	}
	return out, nil
}

// representative implements Van Biesbrouck et al.'s workload-cluster
// selection: Draw(w) k-means-clusters the workload feature matrix into w
// clusters (seeded by rng) and returns the medoid workload of each
// cluster, weighted by its cluster's share of the population. A single
// detailed simulation of the w medoids then estimates population
// throughput via the weighted mean.
type representative struct {
	features [][]float64 // normalised
	maxIter  int
}

// NewRepresentative builds the workload-clustering sampler over the full
// population's feature matrix (see WorkloadFeatures). maxIter bounds the
// k-means iterations per draw (clustering happens on every Draw, seeded
// by the caller's rng; 30 iterations is plenty for selection purposes).
func NewRepresentative(features [][]float64, maxIter int) Sampler {
	if len(features) == 0 {
		panic("sampling: no workload features")
	}
	if maxIter <= 0 {
		maxIter = 30
	}
	return &representative{features: cluster.Normalize(features), maxIter: maxIter}
}

func (r *representative) Name() string { return "workload-cluster" }

func (r *representative) Draw(rng *rand.Rand, w int, idx []int, weights []float64) ([]int, []float64) {
	if w > len(r.features) {
		w = len(r.features)
	}
	if w < 1 {
		w = 1
	}
	res, err := cluster.KMeans(rng, r.features, w, r.maxIter)
	if err != nil {
		panic(fmt.Sprintf("sampling: representative draw: %v", err))
	}
	n := float64(len(r.features))
	for _, size := range res.Sizes() {
		weights = append(weights, float64(size)/n)
	}
	return append(idx, res.Medoids(r.features)...), weights
}
