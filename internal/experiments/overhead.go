package experiments

import (
	"context"
	"fmt"
	"sort"
)

func init() {
	Register(Experiment{
		Name:     "overhead",
		Synopsis: "Section VII-A simulation-overhead example",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.OverheadRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.overheadTable(ctx, p.cores())
		},
	})
}

// OverheadResult is the Section VII-A worked example computed from this
// reproduction's own measurements: the detailed-simulation cost of
// reaching a given confidence that DIP > LRU (4 cores, IPCT) under
// balanced random sampling vs workload stratification.
type OverheadResult struct {
	Cores int

	DetMIPS   float64 // measured detailed-simulator speed
	BadcoMIPS float64 // measured BADCO speed

	// Random/balanced sampling: workloads needed for each confidence
	// target, with the detailed-simulation CPU time they imply (two
	// policies simulated per workload).
	Random []OverheadLine

	// Workload stratification: sample size for its (near-certain)
	// confidence, plus the BADCO preparation overhead.
	StrataWorkloads  int
	StrataConfidence float64
	StrataDetHours   float64
	ModelBuildHours  float64 // 22 models, 2 calibration runs each
	BadcoSweepHours  float64 // population sweep for 2 policies
}

// OverheadLine is one (confidence target, sample size, cpu-hours) row.
type OverheadLine struct {
	Target   float64
	W        int
	DetHours float64
}

// Overhead reproduces the Section VII-A example using measured speeds and
// measured confidence curves. cores should be 4 to match the paper.
func (l *Lab) Overhead(ctx context.Context, cores int) (OverheadResult, error) {
	// Measured speeds (MIPS) from the Table III machinery.
	var det, badco float64
	rows, err := l.TableIII(ctx, 2)
	if err != nil {
		return OverheadResult{}, err
	}
	for _, r := range rows {
		if r.Cores == cores {
			det, badco = r.DetMIPS, r.BadcoMIPS
		}
	}

	// Fig6Pairs()[0] is DIP > LRU.
	points, err := l.fig6Curve(ctx, cores, 0)
	if err != nil {
		return OverheadResult{}, err
	}
	best := func(method string) (conf map[int]float64) {
		conf = map[int]float64{}
		for _, p := range points {
			if p.Method == method {
				conf[p.SampleSize] = p.Confidence
			}
		}
		return conf
	}
	// Balanced random when available, else simple random (subsampled
	// populations).
	randomConf := best("bal-random")
	if len(randomConf) == 0 {
		randomConf = best("random")
	}
	strataConf := best("workload-strata")

	quota := float64(l.cfg.TraceLen)
	instrPerWorkload := quota * float64(cores)
	detHoursPer := instrPerWorkload / (det * 1e6) / 3600
	badcoHoursPer := instrPerWorkload / (badco * 1e6) / 3600

	res := OverheadResult{Cores: cores, DetMIPS: det, BadcoMIPS: badco}

	smallestW := func(conf map[int]float64, target float64) int {
		var sizes []int
		for w := range conf {
			sizes = append(sizes, w)
		}
		sort.Ints(sizes)
		for _, w := range sizes {
			if conf[w] >= target {
				return w
			}
		}
		return -1
	}
	for _, target := range []float64{0.75, 0.90, 0.99} {
		w := smallestW(randomConf, target)
		line := OverheadLine{Target: target, W: w}
		if w > 0 {
			line.DetHours = 2 * float64(w) * detHoursPer
		}
		res.Random = append(res.Random, line)
	}

	// Workload stratification: the paper uses 30 workloads; take the
	// smallest measured size reaching 0.99 (or the smallest size if none
	// does).
	w := smallestW(strataConf, 0.99)
	if w < 0 {
		w = Fig6SampleSizes[0]
	}
	res.StrataWorkloads = w
	res.StrataConfidence = strataConf[w]
	res.StrataDetHours = 2 * float64(w) * detHoursPer

	// Preparation: 22 models x 2 calibration runs of one trace each on
	// the detailed simulator, plus a BADCO sweep of the population for
	// two policies.
	res.ModelBuildHours = 22 * 2 * (quota / (det * 1e6)) / 3600
	res.BadcoSweepHours = 2 * float64(l.Population(cores).Size()) * badcoHoursPer
	return res, nil
}

// OverheadRequests declares the overhead example's inputs: the Table III
// speed measurement's prerequisites plus what Figure 6's DIP > LRU curve
// reads.
func (l *Lab) OverheadRequests(cores int) []Request {
	pair := Fig6Pairs()[0]
	plan := append(l.TableIIIRequests(), badcoSet(cores, pair[:])...)
	return append(plan, Request{Sim: SimRef, Cores: cores}, Request{Sim: SimMPKI})
}

// overheadTable renders the Section VII-A example.
func (l *Lab) overheadTable(ctx context.Context, cores int) (*Table, error) {
	r, err := l.Overhead(ctx, cores)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Section VII-A: simulation overhead example (DIP vs LRU, IPCT, %d cores)", cores),
		Columns: []string{"approach", "confidence", "workloads", "detailed cpu-h", "prep cpu-h"},
		Notes: []string{
			fmt.Sprintf("measured speeds: detailed %.3f MIPS, BADCO %.3f MIPS", r.DetMIPS, r.BadcoMIPS),
			"paper: strat. reaches 99% with 30 workloads for ~74% extra simulation, vs +300% for",
			"random sampling to go from 75% to 90% — stratification buys more confidence per cpu-hour",
		},
	}
	for _, line := range r.Random {
		w := "n/a"
		hours := "n/a"
		if line.W > 0 {
			w = fmt.Sprint(line.W)
			hours = f4(line.DetHours)
		}
		t.AddRow("random/balanced", f2(line.Target), w, hours, "0")
	}
	t.AddRow("workload-strata", f2(r.StrataConfidence), fmt.Sprint(r.StrataWorkloads),
		f4(r.StrataDetHours), f4(r.ModelBuildHours+r.BadcoSweepHours))
	return t, nil
}
