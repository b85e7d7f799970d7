package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// minPairs is the fewest paired runs a comparison accepts.
const minPairs = 10

// verdict applies the rule for claiming a change, to one end-to-end
// metric on one workload. parent[i] and change[i] are the i-th runs of
// each side, run as a pair.
//
//   - Fewer than minPairs pairs: "too few pairs".
//   - Unless every change run beats every parent run, a spread (distance
//     between the quartiles, as a share of the median) wider than the
//     bound on either side: "unresolved".
//   - The change's median worse than the parent's by more than the bound:
//     "regression".
//   - The change winning at least nine tenths of the pairs (ties count for
//     neither) and its median better than the parent's by more than the
//     parent's spread: "gain".
//   - Otherwise "no change".
func verdict(d metricDef, parent, change []float64) string {
	pairs := min(len(parent), len(change))
	if pairs < minPairs {
		return "too few pairs"
	}
	parent, change = parent[:pairs], change[:pairs]
	better := func(a, b float64) bool { // a reads better than b
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	dominates := true
	for _, c := range change {
		for _, p := range parent {
			dominates = dominates && better(c, p)
		}
	}
	spread := math.Max((pq3-pq1)/math.Abs(pmed), (cq3-cq1)/math.Abs(cmed))
	if spread > d.Bound && !dominates {
		return "unresolved"
	}
	worse := (cmed - pmed) / math.Abs(pmed)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regression"
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if 10*wins >= 9*pairs && better(cmed, pmed) && math.Abs(cmed-pmed) > pq3-pq1 {
		return "gain"
	}
	return "no change"
}

// runLog maps workload → metric → values, in run order, for untraced runs.
type runLog map[string]map[string][]float64

// readLog reads the output of one or more runs: each result line follows
// the "# workload=NAME seed=N trace=T" line the parent prints before it.
// Traced runs are skipped; they carry no end-to-end metrics.
func readLog(path string) (runLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log := runLog{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# workload="); ok {
			workload = strings.Fields(rest)[0]
			if strings.Contains(rest, "trace=1") {
				workload = ""
			}
			continue
		}
		if workload == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if log[workload] == nil {
			log[workload] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			log[workload][name] = append(log[workload][name], v.Value)
		}
		workload = ""
	}
	return log, sc.Err()
}

// compareLogs prints one row per (end-to-end metric, workload) present in
// both logs: each side's median and quartiles and the verdict.
func compareLogs(parentPath, changePath string, w io.Writer) error {
	parent, err := readLog(parentPath)
	if err != nil {
		return err
	}
	change, err := readLog(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if change[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("the logs share no workload")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tparent q1/median/q3\tchange q1/median/q3\tbound\tverdict")
	for _, name := range names {
		for _, d := range endToEnd {
			p, c := parent[name][d.Name], change[name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			pq1, pq2, pq3 := quartiles(p)
			cq1, cq2, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%.0f%%\t%s\n", name, d.Name, min(len(p), len(c)),
				pq1, pq2, pq3, cq1, cq2, cq3, d.Bound*100, verdict(d, p, c))
		}
	}
	return tw.Flush()
}
