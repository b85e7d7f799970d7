package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The golden files under testdata/golden were generated by the legacy
// per-figure Lab methods (Fig2Table, TableIV, ...) at QuickConfig before
// the registry refactor deleted them. This test pins every registry
// experiment's output byte-identical to that legacy output, proving the
// refactor changed dispatch, not results; each experiment runs on a
// fresh lab (runFresh), which also pins its plan exact. -update
// regenerates the files from the registry (for intentional output
// changes in later work).
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from registry output")

// goldenParams returns the parameters each golden file was generated
// with: 2 cores everywhere (the quick-scale test population), except the
// two extension experiments the shared test plan warms at 4 cores.
func goldenParams(name string) Params {
	switch name {
	case "methods", "normality":
		return Params{Cores: 4}
	default:
		return Params{Cores: 2, CoreCounts: []int{2}}
	}
}

// timingExperiments measure wall-clock speeds; their cell values are not
// reproducible, so they are pinned structurally instead of byte-wise
// (table3/overhead below, sampling-accuracy in sampling_test.go).
var timingExperiments = map[string]bool{
	"table3": true, "overhead": true, "sampling-accuracy": true,
}

func TestRegistryMatchesLegacyGolden(t *testing.T) {
	quickLab(t)
	for _, name := range Names() {
		if timingExperiments[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			got := runFresh(t, name, goldenParams(name)).String()
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden for %s (run with -update after adding an experiment): %v", name, err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from the legacy methods\n--- got ---\n%s\n--- want ---\n%s",
					name, firstDiffWindow(got, string(want)), firstDiffWindow(string(want), got))
			}
		})
	}
}

// planExempt names the experiments that run child labs of their own by
// design, so their products are not this lab's plan.
var planExempt = map[string]bool{"population-scaling": true, "sampling-accuracy": true}

// runFresh runs the named experiment on a fresh lab over the shared
// lab's persistent cache and returns its table. The shared lab warms the
// experiment's plan first (a no-op once the whole test plan is warm), so
// the fresh lab loads every declared table instead of sweeping it. It
// also checks that the products the fresh lab emits a ProductEvent for
// are exactly the experiment's plan, Distinct(CampaignPlan): a product
// missing from the plan is left out of a campaign's concurrent warm-up,
// and a product the run never reads is swept for nothing. An experiment
// without a plan must emit none.
func runFresh(t *testing.T, name string, p Params) *Table {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q vanished from the registry", name)
	}
	shared := quickLab(t)
	if _, err := shared.Warm(tctx, shared.CampaignPlan([]string{name}, p), 0); err != nil {
		t.Fatal(err)
	}
	cfg := shared.Config()
	var mu sync.Mutex
	var emitted []Request
	cfg.Observer = func(ev ProductEvent) {
		mu.Lock()
		emitted = append(emitted, ev.Request)
		mu.Unlock()
	}
	l := NewLab(cfg)
	tab, err := e.Run(tctx, l, p)
	if err != nil {
		t.Fatal(err)
	}
	if planExempt[name] {
		return tab
	}
	got, want := Distinct(emitted), Distinct(l.CampaignPlan([]string{name}, p))
	for _, r := range got {
		if !slices.Contains(want, r) {
			t.Errorf("%s reads %+v, which its plan does not declare", name, r)
		}
	}
	for _, r := range want {
		if !slices.Contains(got, r) {
			t.Errorf("%s declares %+v, which its run never reads", name, r)
		}
	}
	return tab
}

// firstDiffWindow returns a short window of a around its first
// divergence from b, so failures show the offending lines instead of
// whole tables.
func firstDiffWindow(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			lo := i - 1
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(la) {
				hi = len(la)
			}
			return strings.Join(la[lo:hi], "\n")
		}
	}
	if len(lb) > len(la) {
		return "(truncated relative to other)"
	}
	return "(identical)"
}

// TestTimingExperimentsStructure pins what is stable about the two
// timing-based tables: shape and labels (runFresh checks their plans).
func TestTimingExperimentsStructure(t *testing.T) {
	p := Params{Cores: 2}

	tab3 := runFresh(t, "table3", p)
	if len(tab3.Rows) != 4 {
		t.Errorf("table3: %d rows, want 4 (1/2/4/8 cores)", len(tab3.Rows))
	}
	wantCols := []string{"cores", "MIPS detailed", "MIPS BADCO", "speedup"}
	for i, c := range wantCols {
		if tab3.Columns[i] != c {
			t.Errorf("table3 column %d = %q, want %q", i, tab3.Columns[i], c)
		}
	}

	over := runFresh(t, "overhead", p)
	if len(over.Rows) != 4 {
		t.Errorf("overhead: %d rows, want 4 (3 random targets + strata)", len(over.Rows))
	}
	if got := over.Rows[3][0]; got != "workload-strata" {
		t.Errorf("overhead last row approach %q", got)
	}
}
