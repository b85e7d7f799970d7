package experiments

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/stats"
)

func init() {
	Register(Experiment{
		Name:     "fig2",
		Synopsis: "detailed vs BADCO CPI/speedup accuracy",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.Fig2Requests(p.CoreCounts) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.fig2Table(ctx, p.CoreCounts)
		},
		Chart: func(ctx context.Context, l *Lab, p Params) (string, error) {
			return l.Fig2Chart(ctx, p.CoreCounts)
		},
	})
}

// fig2CoreCounts resolves the figure's core-count sweep (paper default:
// 2, 4 and 8 cores).
func fig2CoreCounts(coreCounts []int) []int {
	if len(coreCounts) == 0 {
		return []int{2, 4, 8}
	}
	return coreCounts
}

// Fig2Point is one (BADCO CPI, detailed CPI) pair of the scatter plot.
type Fig2Point struct {
	Cores     int
	Workload  int // index into DetSample(cores)
	Core      int
	Policy    cache.PolicyName
	BadcoCPI  float64
	DetailCPI float64
}

// Fig2Result aggregates the scatter per core count.
type Fig2Result struct {
	Cores          int
	AvgCPIErr      float64 // mean |CPI_badco - CPI_det| / CPI_det
	MaxCPIErr      float64
	AvgSpeedupErr  float64 // same over per-thread speedups vs the LRU baseline
	Points         []Fig2Point
	WorkloadsUsed  int
	PoliciesUsed   int
	ThreadsPerLoad int
}

// Fig2 reproduces Figure 2: the detailed-vs-BADCO CPI comparison over the
// detailed-simulator workload sample under all five policies, and the
// derived CPI and speedup error statistics the paper quotes (4.59 %,
// 3.98 %, 4.09 % average CPI error and < 22 % max for 2/4/8 cores;
// speedup errors 0.66 %, 0.61 %, 1.43 %).
func (l *Lab) Fig2(ctx context.Context, coreCounts []int) ([]Fig2Result, error) {
	coreCounts = fig2CoreCounts(coreCounts)
	pols := Policies()
	var out []Fig2Result
	for _, cores := range coreCounts {
		sample := l.DetSample(cores)
		res := Fig2Result{Cores: cores, WorkloadsUsed: len(sample), PoliciesUsed: len(pols), ThreadsPerLoad: cores}

		var badcoCPI, detCPI []float64
		// Per-policy per-thread CPIs.
		perPolicyBadco := map[cache.PolicyName][][]float64{}
		perPolicyDet := map[cache.PolicyName][][]float64{}
		for _, pol := range pols {
			det, err := l.DetailedIPC(ctx, cores, pol)
			if err != nil {
				return nil, err
			}
			badcoAll, err := l.BadcoIPC(ctx, cores, pol)
			if err != nil {
				return nil, err
			}
			badco := make([][]float64, len(sample))
			for i, wi := range sample {
				badco[i] = badcoAll[wi]
			}
			perPolicyBadco[pol] = badco
			perPolicyDet[pol] = det
			for i := range det {
				for k := range det[i] {
					b := 1 / badco[i][k]
					d := 1 / det[i][k]
					badcoCPI = append(badcoCPI, b)
					detCPI = append(detCPI, d)
					res.Points = append(res.Points, Fig2Point{
						Cores: cores, Workload: i, Core: k, Policy: pol,
						BadcoCPI: b, DetailCPI: d,
					})
				}
			}
		}
		res.AvgCPIErr = stats.MeanAbsError(badcoCPI, detCPI)
		res.MaxCPIErr = stats.MaxAbsError(badcoCPI, detCPI)

		// Speedups vs the LRU baseline, per thread.
		var badcoSp, detSp []float64
		for _, pol := range pols {
			if pol == cache.LRU {
				continue
			}
			bBase, dBase := perPolicyBadco[cache.LRU], perPolicyDet[cache.LRU]
			b, d := perPolicyBadco[pol], perPolicyDet[pol]
			for i := range d {
				for k := range d[i] {
					badcoSp = append(badcoSp, b[i][k]/bBase[i][k])
					detSp = append(detSp, d[i][k]/dBase[i][k])
				}
			}
		}
		res.AvgSpeedupErr = stats.MeanAbsError(badcoSp, detSp)
		out = append(out, res)
	}
	return out, nil
}

// Fig2Requests declares the tables Fig2 reads: BADCO and detailed tables
// for every case-study policy at each core count.
func (l *Lab) Fig2Requests(coreCounts []int) []Request {
	var plan []Request
	for _, cores := range fig2CoreCounts(coreCounts) {
		plan = append(plan, badcoSet(cores, Policies())...)
		plan = append(plan, detailedSet(cores, Policies())...)
	}
	return plan
}

// fig2Table renders the Figure 2 error summary.
func (l *Lab) fig2Table(ctx context.Context, coreCounts []int) (*Table, error) {
	t := &Table{
		Title:   "Figure 2: detailed (Zesto-role) vs BADCO CPI and speedup accuracy",
		Columns: []string{"cores", "avg CPI err %", "max CPI err %", "avg speedup err %", "points"},
		Notes: []string{
			"paper: avg CPI err 4.59/3.98/4.09 % for 2/4/8 cores, max < 22 %",
			"paper: avg speedup err 0.66/0.61/1.43 % — speedups predicted better than raw CPIs",
		},
	}
	results, err := l.Fig2(ctx, coreCounts)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		t.AddRow(fmt.Sprint(r.Cores), f2(r.AvgCPIErr*100), f2(r.MaxCPIErr*100),
			f2(r.AvgSpeedupErr*100), fmt.Sprint(len(r.Points)))
	}
	return t, nil
}
