package experiments

// The experiment registry. Every figure, table and extension registers
// itself as an Experiment (via Register, from an init function next to
// its implementation), and all dispatch — the public mcbench package
// (and through it cmd/mcbench), the server, campaign planning — goes
// through Lookup instead of hard-coded switches. The registry is the single
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
// means "paper defaults". Dispatchers (the public Lab, which cmd/mcbench
// drives, and the serve subsystem) build it with ParamsFor.
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
// dispatcher must: the public Lab (and through it cmd/mcbench's -cores)
// and the serve subsystem. 0 means each experiment's paper default, a
// positive count pins both the single-count experiments and the
// core-count sweeps of fig2, fig3 and fig7. Centralised so the entry
// points cannot drift and key the shared memo/cache with different
// parameters.
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
// computation over a Lab that yields a printable Table, defined as data
// next to its computation and registered with Register. Run is
// required; Requests and Chart may be nil.
type Experiment struct {
	Name string
	// Synopsis is the one-line description shown by usage listings and
	// `mcbench list`.
	Synopsis string
	Group    Group
	// Requests declares the expensive memoized Lab products the run will
	// read, so a campaign can precompute many experiments' products
	// concurrently (Lab.Warm) before running them. Nil means none.
	Requests func(l *Lab, p Params) []Request
	Run      func(ctx context.Context, l *Lab, p Params) (*Table, error)
	// Chart, when non-nil, renders the experiment's text chart (the
	// -plot view).
	Chart func(ctx context.Context, l *Lab, p Params) (string, error)
}

var registry = struct {
	mu sync.RWMutex
	m  map[string]*Experiment
}{m: map[string]*Experiment{}}

// Register adds an experiment to the registry. It panics on a duplicate
// or invalid registration (registration happens at init time; a broken
// registry is a programming error, not a runtime condition).
func Register(s Experiment) {
	if s.Name == "" || s.Run == nil {
		panic("experiments: Register needs a name and a Run function")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[s.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment %q", s.Name))
	}
	registry.m[s.Name] = &s
}

// Lookup returns the named experiment.
func Lookup(name string) (*Experiment, bool) {
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
func ByGroup(g Group) []*Experiment {
	var order []string
	switch g {
	case GroupPaper:
		order = AllExperiments()
	case GroupExtension:
		order = ExtensionExperiments()
	}
	seen := map[string]bool{}
	var out []*Experiment
	for _, n := range order {
		if e, ok := Lookup(n); ok && e.Group == g {
			out = append(out, e)
			seen[n] = true
		}
	}
	for _, n := range Names() {
		if e, ok := Lookup(n); ok && e.Group == g && !seen[n] {
			out = append(out, e)
		}
	}
	return out
}

// Info is one catalogue entry: how `mcbench list`, the public
// Experiments and GET /experiments describe a registered experiment.
type Info struct {
	Name     string `json:"name"`
	Synopsis string `json:"synopsis"`
	// Group is "paper" for reproductions of the paper's figures and
	// tables, "extension" for experiments beyond it.
	Group string `json:"group"`
}

// Catalogue lists the registered experiments: the paper's figures and
// tables first, in run order, then the extensions (see ByGroup).
func Catalogue() []Info {
	var out []Info
	for _, g := range []Group{GroupPaper, GroupExtension} {
		for _, e := range ByGroup(g) {
			out = append(out, Info{Name: e.Name, Synopsis: e.Synopsis, Group: string(e.Group)})
		}
	}
	return out
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
