package experiments

import (
	"testing"

	"mcbench/internal/multicore"
)

// TestRegistryCatalogueComplete pins the registry against the curated
// run-order lists: every curated name is registered with the right
// group, every registered name is curated (nothing hides from `mcbench
// list`), and the catalogue has the full 23 experiments.
func TestRegistryCatalogueComplete(t *testing.T) {
	curated := map[string]Group{}
	for _, n := range AllExperiments() {
		curated[n] = GroupPaper
	}
	for _, n := range ExtensionExperiments() {
		curated[n] = GroupExtension
	}
	for n, g := range curated {
		e, ok := Lookup(n)
		if !ok {
			t.Errorf("curated experiment %q not registered", n)
			continue
		}
		if e.Group != g {
			t.Errorf("%s: group %q, want %q", n, e.Group, g)
		}
		if e.Name != n {
			t.Errorf("%s: Name = %q", n, e.Name)
		}
		if e.Synopsis == "" {
			t.Errorf("%s: empty synopsis", n)
		}
	}
	names := Names()
	if len(names) != len(curated) {
		t.Errorf("registry has %d experiments, curated lists name %d", len(names), len(curated))
	}
	if len(names) < 20 {
		t.Errorf("registry shrank to %d experiments, want >= 20", len(names))
	}
	for _, n := range names {
		if _, ok := curated[n]; !ok {
			t.Errorf("registered experiment %q missing from the curated run-order lists", n)
		}
	}
}

func TestRegistryRejectsBadSpecs(t *testing.T) {
	fig1, _ := Lookup("fig1")
	for _, s := range []Experiment{
		{},                            // no name, no run
		{Name: "x"},                   // no run
		{Name: "fig1", Run: fig1.Run}, // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", s)
				}
			}()
			Register(s)
		}()
	}
}

func TestSuggest(t *testing.T) {
	cases := map[string]string{
		"fig12":    "fig1",
		"tabel3":   "table3",
		"guidline": "guideline",
		"method":   "methods",
		"zzzzz":    "",
	}
	for in, want := range cases {
		if got := Suggest(in); got != want {
			t.Errorf("Suggest(%q) = %q, want %q", in, got, want)
		}
	}
	// Extra candidates participate.
	if got := Suggest("al", "all", "list", "sim"); got != "all" {
		t.Errorf("Suggest(al, builtins) = %q, want all", got)
	}
}

func TestByGroupOrder(t *testing.T) {
	paper := ByGroup(GroupPaper)
	if len(paper) != len(AllExperiments()) {
		t.Fatalf("%d paper experiments, want %d", len(paper), len(AllExperiments()))
	}
	for i, n := range AllExperiments() {
		if paper[i].Name != n {
			t.Errorf("paper[%d] = %s, want %s", i, paper[i].Name, n)
		}
	}
	ext := ByGroup(GroupExtension)
	if len(ext) != len(ExtensionExperiments()) {
		t.Fatalf("%d extensions, want %d", len(ext), len(ExtensionExperiments()))
	}
}

func TestCheckCores(t *testing.T) {
	for _, c := range []struct {
		cores int
		ok    bool
	}{{0, true}, {1, true}, {multicore.MaxCores, true}, {-1, false}, {multicore.MaxCores + 1, false}, {100000, false}} {
		if err := CheckCores(c.cores); (err == nil) != c.ok {
			t.Errorf("CheckCores(%d) = %v, want ok=%v", c.cores, err, c.ok)
		}
	}
}

// TestChartsDeclared pins which experiments expose the -plot view.
func TestChartsDeclared(t *testing.T) {
	want := map[string]bool{
		"fig1": true, "fig2": true, "fig3": true, "fig5": true, "fig6": true,
	}
	for _, n := range Names() {
		e, _ := Lookup(n)
		if got := e.Chart != nil; got != want[n] {
			t.Errorf("%s: chart declared = %v, want %v", n, got, want[n])
		}
	}
}
