package trace

import "sort"

// DefaultTraceLen is the per-benchmark trace length in µops. It stands in
// for the paper's 100 M instructions per thread at a uniform 10⁻³ scale.
const DefaultTraceLen = 100_000

// KB and MB are byte-size helpers for footprint parameters.
const (
	KB = 1 << 10
	MB = 1 << 20
)

// Suite returns the parameters of the 22 synthetic benchmarks, named after
// the 22 SPEC CPU2006 benchmarks the paper simulates.
//
// The mixtures are calibrated against the scaled reference configuration
// (256 kB 1-core LLC, see uncore.ConfigFor) so that steady-state memory
// intensity reproduces the three classes of Table IV. What matters is the
// footprint a trace actually touches per iteration, not the nominal
// region size:
//
//   - Low: everything the trace touches (data + code) fits in the LLC, so
//     steady-state traffic is near zero.
//   - Medium: a large HotSet whose cold tail exceeds the LLC — a moderate,
//     partially-cached miss stream (plus small chases for flavour).
//   - High: cyclic scans/chases/streams whose per-iteration touched
//     footprint exceeds the LLC several-fold, missing massively. Scans
//     are the LRU-hostile, DIP/DRRIP-friendly component.
func Suite() []Params {
	mk := func(seed int64, name string, p Params) Params {
		p.Name = name
		p.Seed = seed
		return p
	}
	return []Params{
		// ---- Low memory intensity (touched footprint fits the LLC) ----
		mk(101, "povray", Params{
			LoadFrac: 0.26, StoreFrac: 0.10, BranchFrac: 0.12, FPFrac: 0.30,
			DepMean: 12, LoadDepFrac: 0.3, BranchBias: 0.97, CodeBytes: 48 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 64 * KB, Weight: 1},
			},
		}),
		mk(102, "gromacs", Params{
			LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.08, FPFrac: 0.35,
			DepMean: 14, LoadDepFrac: 0.2, BranchBias: 0.96, CodeBytes: 64 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 96 * KB, Weight: 3},
				{Kind: Stride, Bytes: 48 * KB, Stride: 2 * CacheLine, Weight: 1},
			},
		}),
		mk(103, "milc", Params{
			LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.05, FPFrac: 0.35,
			DepMean: 16, LoadDepFrac: 0.15, BranchBias: 0.98, CodeBytes: 32 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 96 * KB, Weight: 2},
				{Kind: Scan, Bytes: 96 * KB, Stride: 16, Weight: 1},
			},
		}),
		mk(104, "calculix", Params{
			LoadFrac: 0.27, StoreFrac: 0.11, BranchFrac: 0.07, FPFrac: 0.38,
			DepMean: 10, LoadDepFrac: 0.25, BranchBias: 0.97, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 96 * KB, Weight: 1},
			},
		}),
		mk(105, "namd", Params{
			LoadFrac: 0.29, StoreFrac: 0.10, BranchFrac: 0.06, FPFrac: 0.40,
			DepMean: 20, LoadDepFrac: 0.15, BranchBias: 0.98, CodeBytes: 48 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 128 * KB, Weight: 1},
			},
		}),
		mk(106, "dealII", Params{
			LoadFrac: 0.31, StoreFrac: 0.13, BranchFrac: 0.10, FPFrac: 0.25,
			DepMean: 9, LoadDepFrac: 0.5, BranchBias: 0.94, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 96 * KB, Weight: 4},
				{Kind: Chase, Bytes: 32 * KB, Weight: 1},
			},
		}),
		mk(107, "perlbench", Params{
			LoadFrac: 0.27, StoreFrac: 0.15, BranchFrac: 0.18, FPFrac: 0.02,
			DepMean: 7, LoadDepFrac: 0.6, BranchBias: 0.90, CodeBytes: 128 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 64 * KB, Weight: 3},
				{Kind: Chase, Bytes: 48 * KB, Weight: 1},
			},
		}),
		mk(108, "gobmk", Params{
			LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.20, FPFrac: 0.01,
			DepMean: 6, LoadDepFrac: 0.5, BranchBias: 0.86, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 96 * KB, Weight: 1},
			},
		}),
		mk(109, "h264ref", Params{
			LoadFrac: 0.33, StoreFrac: 0.14, BranchFrac: 0.09, FPFrac: 0.08,
			DepMean: 15, LoadDepFrac: 0.2, BranchBias: 0.94, CodeBytes: 64 * KB,
			Patterns: []PatternSpec{
				{Kind: Stride, Bytes: 64 * KB, Stride: CacheLine, Weight: 2},
				{Kind: HotSet, Bytes: 64 * KB, Weight: 3},
			},
		}),
		mk(110, "hmmer", Params{
			LoadFrac: 0.30, StoreFrac: 0.16, BranchFrac: 0.10, FPFrac: 0.02,
			DepMean: 22, LoadDepFrac: 0.2, BranchBias: 0.95, CodeBytes: 32 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 64 * KB, Weight: 1},
			},
		}),
		mk(111, "sjeng", Params{
			LoadFrac: 0.25, StoreFrac: 0.11, BranchFrac: 0.19, FPFrac: 0.01,
			DepMean: 6, LoadDepFrac: 0.55, BranchBias: 0.88, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 96 * KB, Weight: 3},
				{Kind: Chase, Bytes: 32 * KB, Weight: 1},
			},
		}),

		// ---- Medium memory intensity (hot-set tails beyond the LLC) ----
		mk(201, "bzip2", Params{
			LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.13, FPFrac: 0.01,
			DepMean: 8, LoadDepFrac: 0.35, BranchBias: 0.90, CodeBytes: 64 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 320 * KB, Weight: 1},
			},
		}),
		mk(202, "gcc", Params{
			LoadFrac: 0.28, StoreFrac: 0.16, BranchFrac: 0.16, FPFrac: 0.01,
			DepMean: 7, LoadDepFrac: 0.6, BranchBias: 0.91, CodeBytes: 128 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 224 * KB, Weight: 12},
				{Kind: Chase, Bytes: 96 * KB, Weight: 1},
			},
		}),
		mk(203, "astar", Params{
			LoadFrac: 0.32, StoreFrac: 0.10, BranchFrac: 0.15, FPFrac: 0.02,
			DepMean: 5, LoadDepFrac: 0.75, BranchBias: 0.87, CodeBytes: 48 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 224 * KB, Weight: 19},
				{Kind: Chase, Bytes: 256 * KB, Weight: 1},
			},
		}),
		mk(204, "zeusmp", Params{
			LoadFrac: 0.31, StoreFrac: 0.15, BranchFrac: 0.04, FPFrac: 0.34,
			DepMean: 16, LoadDepFrac: 0.1, BranchBias: 0.98, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 320 * KB, Weight: 9},
				{Kind: Scan, Bytes: 64 * KB, Stride: 16, Weight: 1},
			},
		}),
		mk(205, "cactusADM", Params{
			LoadFrac: 0.33, StoreFrac: 0.16, BranchFrac: 0.03, FPFrac: 0.33,
			DepMean: 18, LoadDepFrac: 0.1, BranchBias: 0.99, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: HotSet, Bytes: 192 * KB, Weight: 19},
				{Kind: Stride, Bytes: 1 * MB, Stride: 3 * CacheLine, Weight: 1},
			},
		}),

		// ---- High memory intensity (touched footprint >> LLC) ----
		mk(301, "libquantum", Params{
			LoadFrac: 0.34, StoreFrac: 0.16, BranchFrac: 0.12, FPFrac: 0.02,
			DepMean: 18, LoadDepFrac: 0.05, BranchBias: 0.99, CodeBytes: 16 * KB,
			Patterns: []PatternSpec{
				{Kind: Scan, Bytes: 256 * KB, Stride: 16, Weight: 3},
				{Kind: HotSet, Bytes: 32 * KB, Weight: 1},
			},
		}),
		mk(302, "omnetpp", Params{
			LoadFrac: 0.31, StoreFrac: 0.17, BranchFrac: 0.15, FPFrac: 0.02,
			DepMean: 6, LoadDepFrac: 0.8, BranchBias: 0.88, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: Chase, Bytes: 4 * MB, Weight: 1},
				{Kind: HotSet, Bytes: 192 * KB, Weight: 3},
			},
		}),
		mk(303, "leslie3d", Params{
			LoadFrac: 0.33, StoreFrac: 0.15, BranchFrac: 0.04, FPFrac: 0.34,
			DepMean: 17, LoadDepFrac: 0.08, BranchBias: 0.98, CodeBytes: 64 * KB,
			Patterns: []PatternSpec{
				{Kind: Scan, Bytes: 192 * KB, Stride: 16, Weight: 4},
				{Kind: Stream, Weight: 1},
				{Kind: HotSet, Bytes: 128 * KB, Weight: 5},
			},
		}),
		mk(304, "bwaves", Params{
			LoadFrac: 0.35, StoreFrac: 0.14, BranchFrac: 0.03, FPFrac: 0.36,
			DepMean: 20, LoadDepFrac: 0.05, BranchBias: 0.99, CodeBytes: 32 * KB,
			Patterns: []PatternSpec{
				{Kind: Stream, Weight: 2},
				{Kind: Stride, Bytes: 8 * MB, Stride: 5 * CacheLine, Weight: 1},
				{Kind: HotSet, Bytes: 128 * KB, Weight: 7},
			},
		}),
		mk(305, "mcf", Params{
			LoadFrac: 0.35, StoreFrac: 0.10, BranchFrac: 0.17, FPFrac: 0.01,
			DepMean: 4, LoadDepFrac: 0.9, BranchBias: 0.89, CodeBytes: 24 * KB,
			Patterns: []PatternSpec{
				{Kind: Chase, Bytes: 24 * MB, Weight: 3},
				{Kind: HotSet, Bytes: 64 * KB, Weight: 7},
			},
		}),
		mk(306, "soplex", Params{
			LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.11, FPFrac: 0.18,
			DepMean: 9, LoadDepFrac: 0.25, BranchBias: 0.93, CodeBytes: 96 * KB,
			Patterns: []PatternSpec{
				{Kind: Scan, Bytes: 224 * KB, Stride: 16, Weight: 9},
				{Kind: Stride, Bytes: 4 * MB, Stride: 7 * CacheLine, Weight: 2},
				{Kind: HotSet, Bytes: 192 * KB, Weight: 9},
			},
		}),
	}
}

// SuiteNames returns the benchmark names in suite order.
func SuiteNames() []string {
	ps := Suite()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ByName returns the parameters of the named benchmark.
func ByName(name string) (Params, bool) {
	for _, p := range Suite() {
		if p.Name == name {
			return p, true
		}
	}
	return Params{}, false
}

// GenerateSuite builds traces of n µops for every benchmark in the
// suite, keyed by name, for tests. It panics on a non-positive n, the
// only failure mode.
func GenerateSuite(n int) map[string]*Trace {
	out := make(map[string]*Trace, 22)
	for _, p := range Suite() {
		out[p.Name] = MustGenerate(p, n)
	}
	return out
}

// SortedNames returns the suite benchmark names in lexicographic order,
// useful for deterministic iteration over GenerateSuite results.
func SortedNames() []string {
	names := SuiteNames()
	sort.Strings(names)
	return names
}
