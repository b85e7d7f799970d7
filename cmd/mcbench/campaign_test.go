package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateCampaign = flag.Bool("update-campaign", false, "rewrite testdata/campaign.txt from the current output")

// elapsed matches the lines of a campaign's output that carry a wall
// time: the warm summary and each experiment's timing.
var elapsed = regexp.MustCompile(`(?m)^\((warmed \d+ tables/products in|\S+ took) [^)]*\)\n`)

// TestCampaignGolden pins what a campaign run writes, to standard output
// and standard error, and its exit code, with the wall-time lines
// filtered out: two experiments' tables, a -plot chart, the hint on an
// unknown experiment and the refusal of a -cores beyond the largest
// machine.
func TestCampaignGolden(t *testing.T) {
	runs := [][]string{
		{"-quick", "config", "fig1"},
		{"-quick", "-plot", "fig1"},
		{"-quick", "fig12"},
		{"-quick", "-cores", "65", "fig4"},
	}
	sections := make([]string, len(runs))
	for i, args := range runs {
		code, stdout, stderr := runMain(t, args...)
		stdout = elapsed.ReplaceAllString(stdout, "")
		sections[i] = fmt.Sprintf("$ mcbench %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	got := strings.Join(sections, "\n")
	path := filepath.Join("testdata", "campaign.txt")
	if *updateCampaign {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("mcbench campaign output changed; if deliberate, rerun with -update-campaign.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
