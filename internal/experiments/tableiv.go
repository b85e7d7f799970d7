package experiments

import (
	"context"
	"sort"

	"mcbench/internal/sampling"
)

func init() {
	Register(Experiment{
		Name:     "table4",
		Synopsis: "benchmark MPKI classification",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.TableIVRequests() },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.TableIV(ctx)
		},
	})
}

// paperClasses is Table IV of the paper: the memory-intensity class of
// each benchmark.
var paperClasses = map[string]sampling.Class{
	"povray": sampling.LowMPKI, "gromacs": sampling.LowMPKI, "milc": sampling.LowMPKI,
	"calculix": sampling.LowMPKI, "namd": sampling.LowMPKI, "dealII": sampling.LowMPKI,
	"perlbench": sampling.LowMPKI, "gobmk": sampling.LowMPKI, "h264ref": sampling.LowMPKI,
	"hmmer": sampling.LowMPKI, "sjeng": sampling.LowMPKI,
	"bzip2": sampling.MediumMPKI, "gcc": sampling.MediumMPKI, "astar": sampling.MediumMPKI,
	"zeusmp": sampling.MediumMPKI, "cactusADM": sampling.MediumMPKI,
	"libquantum": sampling.HighMPKI, "omnetpp": sampling.HighMPKI, "leslie3d": sampling.HighMPKI,
	"bwaves": sampling.HighMPKI, "mcf": sampling.HighMPKI, "soplex": sampling.HighMPKI,
}

// PaperClass returns the Table IV class of a benchmark.
func PaperClass(name string) sampling.Class { return paperClasses[name] }

// Classes returns the measured class of every benchmark (indexed like
// Names()), the classification actually used by benchmark stratification.
func (l *Lab) Classes(ctx context.Context) ([]int, error) {
	mpki, err := l.MPKI(ctx)
	if err != nil {
		return nil, err
	}
	return sampling.ScaledThresholds().ClassifyAll(mpki), nil
}

// TableIVRequests declares Table IV's one expensive product: the MPKI
// measurement (22 detailed alone runs).
func (l *Lab) TableIVRequests() []Request {
	return []Request{{Sim: SimMPKI}}
}

// TableIV reproduces Table IV: the classification of the 22 benchmarks by
// measured LLC MPKI (Low < 1, Medium < 5, High >= 5).
func (l *Lab) TableIV(ctx context.Context) (*Table, error) {
	names := l.Names()
	mpki, err := l.MPKI(ctx)
	if err != nil {
		return nil, err
	}
	th := sampling.ScaledThresholds()

	type row struct {
		name  string
		mpki  float64
		class sampling.Class
	}
	rows := make([]row, len(names))
	for i, n := range names {
		rows[i] = row{n, mpki[i], th.Classify(mpki[i])}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].class != rows[b].class {
			return rows[a].class < rows[b].class
		}
		return rows[a].mpki < rows[b].mpki
	})

	t := &Table{
		Title:   "Table IV: benchmark classification by LLC MPKI (alone, 1-core, LRU)",
		Columns: []string{"benchmark", "MPKI", "class", "paper class", "match"},
	}
	matches := 0
	for _, r := range rows {
		paper := paperClasses[r.name]
		match := "yes"
		if paper != r.class {
			match = "NO"
		} else {
			matches++
		}
		t.AddRow(r.name, f2(r.mpki), r.class.String(), paper.String(), match)
	}
	t.Notes = append(t.Notes,
		f2(float64(matches)*100/float64(len(rows)))+"% of benchmarks in the paper's class",
		"paper: Low={povray gromacs milc calculix namd dealII perlbench gobmk h264ref hmmer sjeng}, "+
			"Medium={bzip2 gcc astar zeusmp cactusADM}, High={libquantum omnetpp leslie3d bwaves mcf soplex}")
	return t, nil
}
