// Clustering: derive benchmark classes and representative workloads by
// cluster analysis on microarchitecture-independent profiles — the two
// fully-automatic selection methods the paper surveys in Section II-B
// (Vandierendonck & Seznec [6]; Van Biesbrouck, Eeckhout & Calder [7])
// — through the public mcbench API.
//
// Run with: go run ./examples/clustering
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mcbench"
)

func main() {
	ctx := context.Background()

	// 1. Profile the 22-benchmark suite: instruction mix, footprints,
	// reuse-distance histograms — no microarchitecture parameters used.
	// The lab memoizes the profiles (QuickConfig: 20k-µop traces).
	lab := mcbench.NewLab(mcbench.QuickConfig())
	names := mcbench.Benchmarks()
	features, err := lab.BenchFeatures(ctx)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Cluster the benchmarks into behavioural classes (k chosen by
	// silhouette score) and print the classes.
	rng := rand.New(rand.NewSource(1))
	best, err := mcbench.BestK(rng, mcbench.NormalizeFeatures(features), 2, 6)
	if err != nil {
		log.Fatal(err)
	}
	assign := mcbench.SortedAssign(best)
	fmt.Printf("k-means chose %d benchmark classes (silhouette-selected):\n", best.K)
	for c := 0; c < best.K; c++ {
		fmt.Printf("  class %d:", c)
		for i, a := range assign {
			if a == c {
				fmt.Printf(" %s", names[i])
			}
		}
		fmt.Println()
	}

	// 3. Use the classes for benchmark stratification over the 2-core
	// workload population, and draw a 20-workload sample.
	pop := mcbench.EnumerateWorkloads(2)
	strata, classes, err := mcbench.NewClusterBenchStrata(rng, pop, features, best.K)
	if err != nil {
		log.Fatal(err)
	}
	_ = classes
	idx, weights := strata.Draw(rng, 20, nil, nil)
	fmt.Printf("\ncluster-stratified sample of 20 workloads (of %d):\n", pop.Size())
	for i, w := range idx[:5] {
		fmt.Printf("  %-24v weight %.4f\n", pop.Workloads[w].Names(names), weights[i])
	}
	fmt.Printf("  ... (%d more)\n", len(idx)-5)

	// 4. Van Biesbrouck-style representative workloads: cluster the
	// workload feature matrix and simulate only the medoids, weighted by
	// cluster size.
	wf, err := mcbench.WorkloadFeatures(pop, features)
	if err != nil {
		log.Fatal(err)
	}
	rep := mcbench.NewRepresentative(wf, 30)
	medoids, wts := rep.Draw(rng, 6, nil, nil)
	fmt.Printf("\n6 representative workloads stand in for all %d:\n", pop.Size())
	for i, m := range medoids {
		fmt.Printf("  %-24v covers %4.1f%% of the population\n",
			pop.Workloads[m].Names(names), wts[i]*100)
	}
	fmt.Println("\nsimulate just these medoids and weight their throughputs to estimate the population mean")
}
