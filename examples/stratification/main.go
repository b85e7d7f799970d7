// Stratification: the paper's main proposal in action, through the
// public mcbench API. Build workload strata from fast-simulator
// estimates of the per-workload difference between two policies, then
// show how much smaller a stratified sample can be than a random one at
// equal confidence (Section VI-B-2). Benchmark stratification by
// measured memory-intensity class (Section VI-A) runs beside it.
//
// Run with: go run ./examples/stratification
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mcbench"
)

const (
	cores  = 2
	trials = 2000
)

func main() {
	ctx := context.Background()

	// BADCO population sweeps for the two policies under study, via the
	// lab's memoized machinery (QuickConfig: 20k-µop traces, full
	// 253-workload 2-core population).
	lab := mcbench.NewLab(mcbench.QuickConfig())
	pop := lab.Population(cores)
	d, err := lab.Diffs(ctx, cores, mcbench.IPCT, mcbench.LRU, mcbench.DIP)
	if err != nil {
		log.Fatal(err)
	}

	// Build strata from d(w) with the paper's parameters, and benchmark
	// strata from each benchmark's measured MPKI class.
	cfg := mcbench.DefaultWorkloadStrataConfig()
	strata := mcbench.NewWorkloadStrata(d, cfg)
	random := mcbench.NewSimpleRandom(len(d))
	balanced := mcbench.NewBalancedRandom(pop)
	classes, err := lab.Classes(ctx)
	if err != nil {
		log.Fatal(err)
	}
	benchStrata := mcbench.NewBenchmarkStrata(pop, classes, mcbench.NumClasses)

	fmt.Printf("DIP vs LRU on %d workloads (%d cores, IPCT): %d strata (WT=%d, TSD=%g)\n",
		pop.Size(), cores, mcbench.NumStrata(strata), cfg.MinSize, cfg.MaxStdDev)
	fmt.Println()
	fmt.Printf("%6s  %10s  %12s  %13s  %16s\n", "W", "random", "bal-random", "bench-strata", "workload-strata")
	rng := rand.New(rand.NewSource(42))
	for _, w := range []int{10, 20, 40, 80, 160} {
		r := mcbench.EmpiricalConfidence(rng, d, random, w, trials)
		b := mcbench.EmpiricalConfidence(rng, d, balanced, w, trials)
		c := mcbench.EmpiricalConfidence(rng, d, benchStrata, w, trials)
		s := mcbench.EmpiricalConfidence(rng, d, strata, w, trials)
		fmt.Printf("%6d  %10.3f  %12.3f  %13.3f  %16.3f\n", w, r, b, c, s)
	}
	fmt.Println()
	fmt.Println("a confidence near 0 or 1 is decisive; near 0.5 the sample cannot tell the policies apart")
}
