package experiments

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/stats"
)

func init() {
	Register(Experiment{
		Name:     "policies",
		Synopsis: "SRRIP/PLRU/SHiP placed in the paper's 1/cv framework",
		Group:    GroupExtension,
		Requests: func(l *Lab, p Params) []Request { return l.ExtPoliciesRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.extPoliciesTable(ctx, p.cores())
		},
	})
}

// ExtPolicyRow is one extension-policy pair's population statistics.
type ExtPolicyRow struct {
	Pair      [2]cache.PolicyName
	InvCV     float64 // 1/cv of d(w), IPCT, population
	RequiredW int     // W = 8cv^2
}

// ExtPolicies extends the paper's five-policy case study with SRRIP,
// PLRU and SHiP: for each extension policy it measures 1/cv of the
// population throughput difference against LRU and against DRRIP (IPCT),
// placing the new policies in the paper's decisive/near-tie spectrum and
// showing how the required random-sample size W = 8cv² shifts with the
// pair.
func (l *Lab) ExtPolicies(ctx context.Context, cores int) ([]ExtPolicyRow, error) {
	var rows []ExtPolicyRow
	for _, ext := range []cache.PolicyName{cache.SRRIP, cache.PLRU, cache.SHIP} {
		for _, base := range []cache.PolicyName{cache.LRU, cache.DRRIP} {
			d, err := l.Diffs(ctx, cores, metrics.IPCT, base, ext)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ExtPolicyRow{
				Pair:      [2]cache.PolicyName{base, ext},
				InvCV:     stats.InvCoefVar(d),
				RequiredW: stats.RequiredSampleSize(stats.CoefVar(d)),
			})
		}
	}
	return rows, nil
}

// ExtPoliciesRequests declares the tables ExtPolicies reads: the two
// baselines and three extension policies' BADCO tables plus the
// reference IPCs.
func (l *Lab) ExtPoliciesRequests(cores int) []Request {
	pols := []cache.PolicyName{cache.LRU, cache.DRRIP, cache.SRRIP, cache.PLRU, cache.SHIP}
	return append(badcoSet(cores, pols), Request{Sim: SimRef, Cores: cores})
}

// extPoliciesTable renders the extension-policy comparison.
func (l *Lab) extPoliciesTable(ctx context.Context, cores int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Extension: SRRIP / PLRU / SHiP in the paper's 1/cv framework (IPCT, %d cores)", cores),
		Columns: []string{"pair (X>Y)", "1/cv", "required W"},
		Notes: []string{
			"positive 1/cv: Y beats X on the population; |1/cv| >= 1 is the ~8-workload regime,",
			"|1/cv| << 1 the hundreds-of-workloads regime (paper Sec. V-B)",
		},
	}
	rows, err := l.ExtPolicies(ctx, cores)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		w := fmt.Sprint(r.RequiredW)
		if r.RequiredW > 1<<20 {
			w = "equal (cv > 10)"
		}
		t.AddRow(fmt.Sprintf("%s>%s", r.Pair[0], r.Pair[1]), f3(r.InvCV), w)
	}
	return t, nil
}
