package experiments

// The experiment registry. Every figure, table and extension registers
// itself as an Experiment (via Register, from an init function next to
// its implementation), and all dispatch — cmd/mcbench's experiment
// names, campaign planning, the public mcbench package — goes through
// Lookup instead of hard-coded switches. The registry is the single
// source of truth for what the reproduction can compute.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mcbench/internal/multicore"
)

// Group classifies an experiment for usage listings.
type Group string

const (
	// GroupPaper marks reproductions of the paper's own figures and
	// tables.
	GroupPaper Group = "paper"
	// GroupExtension marks experiments beyond the paper.
	GroupExtension Group = "extension"
)

// Params carries the per-run knobs an experiment accepts. The zero value
// means "paper defaults".
type Params struct {
	// Cores is the core count for single-core-count experiments
	// (fig4/fig5/fig6/overhead and most extensions); 0 means 4, the
	// paper's main configuration.
	Cores int
	// CoreCounts overrides the core-count sweep of the multi-count
	// experiments (fig2, fig3, fig7); nil means their paper defaults.
	// Single-count experiments ignore it.
	CoreCounts []int
}

// cores resolves the single-count core parameter.
func (p Params) cores() int {
	if p.Cores > 0 {
		return p.Cores
	}
	return 4
}

// ParamsFor maps a bare cores argument onto Params the way every
// dispatcher (the public Lab, the serve subsystem) must: 0 means each
// experiment's paper default, a positive count pins both the
// single-count experiments and the core-count sweeps of fig2, fig3 and
// fig7. Centralised so two entry points cannot drift and key the shared
// memo/cache with different parameters.
func ParamsFor(cores int) Params {
	p := Params{Cores: cores}
	if cores > 0 {
		p.CoreCounts = []int{cores}
	}
	return p
}

// CheckCores bounds the cores argument of an experiment run: 0 (each
// experiment's paper default) up to multicore.MaxCores. Experiments size
// their machines and populations by it, so an unbounded count could
// exhaust the host's memory before the first table lands; the CLI, the
// public Lab and the server all check through it. Like multicore.Check's,
// its error carries no package prefix.
func CheckCores(cores int) error {
	if cores < 0 || cores > multicore.MaxCores {
		return fmt.Errorf("cores %d outside [0, %d]", cores, multicore.MaxCores)
	}
	return nil
}

// Experiment is one reproducible unit of the evaluation: a named
// computation over a Lab that yields a printable Table. Requests
// declares the expensive memoized Lab products the run will read, so a
// campaign can precompute many experiments' products concurrently
// (Lab.Warm) before running them.
type Experiment interface {
	Name() string
	// Synopsis is the one-line description shown by usage listings and
	// `mcbench list`.
	Synopsis() string
	Group() Group
	Requests(l *Lab, p Params) []Request
	Run(ctx context.Context, l *Lab, p Params) (*Table, error)
}

// Spec is a declarative Experiment implementation: Register wraps it so
// experiments are defined as data next to their computation. Run is
// required; Requests and Chart may be nil.
type Spec struct {
	Name     string
	Synopsis string
	Group    Group
	Requests func(l *Lab, p Params) []Request
	Run      func(ctx context.Context, l *Lab, p Params) (*Table, error)
	// Chart, when non-nil, renders the experiment's text chart (the
	// -plot view). Retrieved via the package-level Chart function.
	Chart func(ctx context.Context, l *Lab, p Params) (string, error)
}

// spec adapts a Spec to the Experiment interface.
type spec struct{ s Spec }

func (e spec) Name() string     { return e.s.Name }
func (e spec) Synopsis() string { return e.s.Synopsis }
func (e spec) Group() Group     { return e.s.Group }

func (e spec) Requests(l *Lab, p Params) []Request {
	if e.s.Requests == nil {
		return nil
	}
	return e.s.Requests(l, p)
}

func (e spec) Run(ctx context.Context, l *Lab, p Params) (*Table, error) {
	return e.s.Run(ctx, l, p)
}

var registry = struct {
	mu sync.RWMutex
	m  map[string]Experiment
}{m: map[string]Experiment{}}

// Register adds an experiment to the registry. It panics on a duplicate
// or invalid registration (registration happens at init time; a broken
// registry is a programming error, not a runtime condition).
func Register(s Spec) {
	if s.Name == "" || s.Run == nil {
		panic("experiments: Register needs a name and a Run function")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[s.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment %q", s.Name))
	}
	registry.m[s.Name] = spec{s}
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	e, ok := registry.m[name]
	return e, ok
}

// Names returns every registered experiment name, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByGroup returns the registered experiments of one group in their
// canonical run order (AllExperiments / ExtensionExperiments), appending
// any stragglers not in the curated lists in sorted order so nothing is
// ever hidden.
func ByGroup(g Group) []Experiment {
	var order []string
	switch g {
	case GroupPaper:
		order = AllExperiments()
	case GroupExtension:
		order = ExtensionExperiments()
	}
	seen := map[string]bool{}
	var out []Experiment
	for _, n := range order {
		if e, ok := Lookup(n); ok && e.Group() == g {
			out = append(out, e)
			seen[n] = true
		}
	}
	for _, n := range Names() {
		if e, ok := Lookup(n); ok && e.Group() == g && !seen[n] {
			out = append(out, e)
		}
	}
	return out
}

// Chart renders the experiment's text chart if it declares one; ok
// reports whether it does.
func Chart(ctx context.Context, e Experiment, l *Lab, p Params) (chart string, ok bool, err error) {
	sp, isSpec := e.(spec)
	if !isSpec || sp.s.Chart == nil {
		return "", false, nil
	}
	chart, err = sp.s.Chart(ctx, l, p)
	return chart, true, err
}

// Suggest returns the candidate closest to the (unknown) input under
// edit distance — drawn from the registered experiment names plus any
// extra candidates (CLI builtins like "all", "list", "sim") — or ""
// when nothing is plausibly close. It powers the CLI's "did you mean"
// hint.
func Suggest(name string, extra ...string) string {
	best, bestDist := "", len(name)/2+2
	for _, n := range append(Names(), extra...) {
		if d := editDistance(name, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// AllExperiments lists the paper experiments "all" expands to, in run
// order.
func AllExperiments() []string {
	return []string{
		"config", "fig1", "table4", "table3", "fig2", "fig3",
		"fig4", "fig5", "fig6", "fig7", "overhead",
	}
}

// ExtensionExperiments lists the beyond-the-paper experiments in their
// canonical usage order.
func ExtensionExperiments() []string {
	return []string{
		"ablation-strata", "ablation-classes", "ablation-metrics",
		"speedup", "guideline", "methods", "cophase", "predictors",
		"normality", "profiles", "policies", "population-scaling",
		"sampling-accuracy",
	}
}
