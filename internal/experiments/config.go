package experiments

import (
	"context"
	"fmt"

	"mcbench/internal/cpu"
	"mcbench/internal/uncore"
)

func init() {
	Register(Experiment{
		Name:     "config",
		Synopsis: "print the simulated core/uncore configurations",
		Group:    GroupPaper,
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return ConfigTable(), nil
		},
	})
}

// ConfigTable prints the Table I / Table II configurations in force. It
// is static — no simulation — and therefore infallible.
func ConfigTable() *Table {
	core := cpu.DefaultConfig()
	t := &Table{
		Title:   "Tables I & II: simulated configurations",
		Columns: []string{"parameter", "value"},
		Notes: []string{
			"LLC capacities are the paper's scaled by 1/4, matching the 10^-3 trace-length scale (see uncore.ConfigFor)",
		},
	}
	t.AddRow("decode/issue/commit", fmt.Sprintf("%d/%d/%d", core.DecodeWidth, core.IssueWidth, core.CommitWidth))
	t.AddRow("RS/LDQ/STQ/ROB", fmt.Sprintf("%d/%d/%d/%d", core.RS, core.LDQ, core.STQ, core.ROB))
	t.AddRow("IL1", fmt.Sprintf("%d kB, %d-way, %d cycles", core.IL1Bytes>>10, core.IL1Ways, core.IL1Lat))
	t.AddRow("DL1", fmt.Sprintf("%d kB, %d-way, %d cycles, %d MSHRs", core.DL1Bytes>>10, core.DL1Ways, core.DL1Lat, core.DL1MSHRs))
	t.AddRow("ITLB/DTLB", fmt.Sprintf("%d/%d entries, %d-cycle walk", core.ITLBEntries, core.DTLBEntries, core.TLBWalkLat))
	t.AddRow("branch predictor", fmt.Sprintf("bimodal 2^%d, %d-cycle redirect", core.BPIndexBits, core.MispredictPenalty))
	for _, k := range []int{2, 4, 8} {
		u := uncore.ConfigFor(k, "LRU")
		t.AddRow(fmt.Sprintf("uncore %d cores", k),
			fmt.Sprintf("LLC %d kB/%d-way/%d cycles, %d MSHRs, %d-entry WB, DRAM %d cycles",
				u.LLCBytes>>10, u.LLCWays, u.LLCLatency, u.MSHRs, u.WriteBufEnts, u.DRAMLatency))
	}
	return t
}
