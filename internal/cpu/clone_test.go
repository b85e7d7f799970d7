package cpu

import (
	"slices"
	"testing"

	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// TestCloneRoundTrip runs a core detailed until its prefetch-drop
// calibration has counted proposals, clones the core and its uncore,
// and puts the original and then the clone through the same
// fast-forward and detailed run: both must commit every µop at the same
// cycle and end with equal core and uncore statistics. Fast-forward
// replays the calibrated drop rate, so a clone that lost any of that
// state diverges.
func TestCloneRoundTrip(t *testing.T) {
	traces := trace.GenerateSuite(5000)
	for _, bench := range []string{"mcf", "soplex", "libquantum", "gcc", "milc", "povray"} {
		tr := traces[bench]
		unc := uncore.MustNew(uncore.ConfigFor(1, "LRU"))
		c := MustNew(0, DefaultConfig(), tr, unc)
		c.Run(4000)
		if c.pfCand == 0 {
			t.Fatalf("%s: no prefetch proposals counted before the clone", bench)
		}

		unc2 := unc.Clone()
		c2 := c.Clone(unc2)
		run := func(c *Core) []uint64 {
			c.FastForward(6000)
			commits := make([]uint64, 4000)
			for i := range commits {
				commits[i] = c.Step()
			}
			return commits
		}
		want := run(c)
		if got := run(c2); !slices.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Errorf("%s: step %d after the clone commits at %d, original at %d", bench, i, got[i], want[i])
		}
		if c2.Stats() != c.Stats() {
			t.Errorf("%s: core stats diverge:\n  clone    %+v\n  original %+v", bench, c2.Stats(), c.Stats())
		}
		if unc2.Stats() != unc.Stats() {
			t.Errorf("%s: uncore stats diverge:\n  clone    %+v\n  original %+v", bench, unc2.Stats(), unc.Stats())
		}
	}
}
