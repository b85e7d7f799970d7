package experiments

import (
	"context"
	"fmt"
	"time"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
)

func init() {
	Register(Spec{
		Name:     "table3",
		Synopsis: "simulation speed (MIPS) and BADCO speedup",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.TableIIIRequests() },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.tableIIITable(ctx, 3)
		},
	})
}

// TableIIIRow reports simulation speed for one core count.
type TableIIIRow struct {
	Cores     int
	DetMIPS   float64 // detailed-simulator speed, million instructions/s
	BadcoMIPS float64
	Speedup   float64
}

// TableIII reproduces Table III: the simulation speed of the detailed
// model vs BADCO in MIPS, and the speedup, for 1/2/4/8 cores. Workloads
// are drawn from the detailed sample of each core count (a fixed small
// number, timed sequentially so the measurement is not confounded by the
// sweep parallelism).
func (l *Lab) TableIII(ctx context.Context, workloadsPerPoint int) ([]TableIIIRow, error) {
	if workloadsPerPoint <= 0 {
		workloadsPerPoint = 3
	}
	prov := l.Provider()
	models, err := l.Models(ctx)
	if err != nil {
		return nil, err
	}
	var rows []TableIIIRow
	for _, cores := range []int{1, 2, 4, 8} {
		var ws []multicore.Workload
		if cores == 1 {
			// Single-benchmark "workloads": a spread of intensities
			// (positions spread across the source for non-suite labs).
			for _, n := range l.spreadNames(workloadsPerPoint) {
				ws = append(ws, multicore.Workload{n})
			}
		} else {
			pop := l.Population(cores)
			for _, wi := range l.DetSample(cores) {
				ws = append(ws, l.toMulticore(pop.Workloads[wi]))
				if len(ws) == workloadsPerPoint {
					break
				}
			}
		}

		quota := uint64(l.cfg.TraceLen)
		instructions := float64(quota) * float64(cores) * float64(len(ws))

		// Resolve every trace before starting the clock, so lazy source
		// builds never pollute the MIPS measurement.
		for _, w := range ws {
			for _, n := range w {
				if _, err := prov.Trace(ctx, n); err != nil {
					return nil, err
				}
			}
		}

		start := time.Now()
		for _, w := range ws {
			if _, err := multicore.Run(ctx, w, multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU, Quota: quota}, prov, nil); err != nil {
				return nil, err
			}
		}
		detDur := time.Since(start)

		start = time.Now()
		for _, w := range ws {
			if _, err := multicore.Run(ctx, w, multicore.Spec{Engine: multicore.BADCO, Policy: cache.LRU, Quota: quota}, nil, models); err != nil {
				return nil, err
			}
		}
		badcoDur := time.Since(start)

		det := instructions / detDur.Seconds() / 1e6
		bad := instructions / badcoDur.Seconds() / 1e6
		rows = append(rows, TableIIIRow{
			Cores:     cores,
			DetMIPS:   det,
			BadcoMIPS: bad,
			Speedup:   bad / det,
		})
	}
	return rows, nil
}

// TableIIIRequests declares Table III's prerequisites: it times
// individual simulations itself, so it only needs the BADCO models (and
// the traces they imply) built beforehand, keeping the model-building
// cost out of the timed region.
func (l *Lab) TableIIIRequests() []Request {
	return []Request{{Sim: SimModels}}
}

// tableIIITable renders Table III.
func (l *Lab) tableIIITable(ctx context.Context, workloadsPerPoint int) (*Table, error) {
	t := &Table{
		Title:   "Table III: simulation speed (MIPS) and BADCO speedup",
		Columns: []string{"cores", "MIPS detailed", "MIPS BADCO", "speedup"},
		Notes: []string{
			"paper: Zesto 0.170/0.096/0.049/0.017 MIPS; BADCO 2.52/2.41/1.89/1.19; speedup 14.8/25.2/38.9/68.1",
			"absolute MIPS differ (different host and simulators); the shape to check is BADCO >> detailed",
		},
	}
	rows, err := l.TableIII(ctx, workloadsPerPoint)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Cores), f3(r.DetMIPS), f3(r.BadcoMIPS), f2(r.Speedup))
	}
	return t, nil
}

// spreadNames picks up to k benchmarks spread evenly across the source
// order, giving a mix of intensity classes for the timing workloads on
// any source size. The picks are centred in their strides (positions
// (2i+1)·B/2k), so even small k reaches into every contiguous class
// band rather than clustering at the front of the order.
func (l *Lab) spreadNames(k int) []string {
	names := l.Names()
	if k > len(names) {
		k = len(names)
	}
	out := make([]string, k)
	for i := range out {
		out[i] = names[(2*i+1)*len(names)/(2*k)]
	}
	return out
}
