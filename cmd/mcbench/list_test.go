package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateList = flag.Bool("update-list", false, "rewrite testdata/list.txt from the catalogue")

// TestListCatalogue pins the text of `mcbench list` to testdata/list.txt
// and checks that every entry keeps its name and synopsis apart.
func TestListCatalogue(t *testing.T) {
	var buf bytes.Buffer
	listExperiments(&buf)
	got := buf.String()
	entry := regexp.MustCompile(`^  \S+ +\S`)
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "  ") && !entry.MatchString(line) {
			t.Errorf("entry %q does not separate its name from its synopsis", line)
		}
	}
	path := filepath.Join("testdata", "list.txt")
	if *updateList {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("mcbench list changed; if deliberate, rerun with -update-list.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
