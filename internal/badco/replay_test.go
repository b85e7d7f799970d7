package badco

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// replayTraceLen is the trace length of the suite models the replay
// tests build; short enough to build all 22 in about a second.
const replayTraceLen = 10000

var (
	suiteOnce sync.Once
	suiteMods []*Model
	suiteErr  error
)

// suiteModels builds every suite benchmark's model once per test binary,
// in suite order.
func suiteModels(t *testing.T) []*Model {
	t.Helper()
	suiteOnce.Do(func() {
		for _, p := range trace.Suite() {
			tr, err := trace.Generate(p, replayTraceLen)
			if err != nil {
				suiteErr = err
				return
			}
			m, err := Build(tr, DefaultBuildConfig())
			if err != nil {
				suiteErr = err
				return
			}
			suiteMods = append(suiteMods, m)
		}
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteMods
}

// stepUntilRef is StepUntil's specification: Step while the clock is
// below limit and the committed count below quota.
func stepUntilRef(ma *Machine, limit, quota uint64) (now, committed uint64) {
	for ma.Now() < limit && ma.Committed() < quota {
		ma.Step()
	}
	return ma.Now(), ma.Committed()
}

// sameReplay reports the first way the reference machine a and the
// batched machine b, or their uncores, differ: the clock, the committed
// count, the replay position, every node's issue and completion time,
// the uncore's counters, a physical address in b's memo that a's page
// table maps otherwise (the memo fills in first-touch order or pages
// are allocated in another order), or a memoized prefetch flag (bit 0,
// masked off before the address is compared) that is not the
// satellite's. It returns "" when they agree.
func sameReplay(a, b *Machine, ua, ub *uncore.Uncore) string {
	switch {
	case a.Now() != b.Now():
		return "clock"
	case a.Committed() != b.Committed():
		return "committed"
	case a.next != b.next || a.iter != b.iter || a.prevEnd != b.prevEnd:
		return "position"
	case !slices.Equal(a.issueT, b.issueT):
		return "node issue times"
	case !slices.Equal(a.compT, b.compT):
		return "node completion times"
	case ua.Stats() != ub.Stats():
		return "uncore stats"
	}
	// Only nodes a has executed are memoized in b, so these Translate
	// calls look pages up and allocate none.
	for j, pa := range b.nodePA {
		if pa != 0 && pa != ua.Translate(b.id, b.model.Nodes[j].VAddr) {
			return "memoized node addresses"
		}
	}
	for k, pa := range b.satPA {
		if pa == 0 {
			continue
		}
		s := &b.model.Satellites[k]
		if pa&^satPrefetch != ua.Translate(b.id, s.VAddr) {
			return "memoized satellite addresses"
		}
		if (pa&satPrefetch != 0) != s.Prefetch {
			return "memoized satellite prefetch flags"
		}
	}
	return ""
}

// replayDiff replays m on two fresh identical uncores, the reference by
// Step (through stepUntilRef) and the other by StepUntil, in irregular
// batches drawn from seed, until the reference has completed iters
// iterations, and reports the first divergence ("" if none). Batches
// mix clock limits, quotas, both at once and empty batches.
func replayDiff(m *Model, cfg uncore.Config, id int, seed int64, iters uint64) string {
	ru, fu := uncore.MustNew(cfg), uncore.MustNew(cfg)
	ref, fast := MustNewMachine(id, m, ru), MustNewMachine(id, m, fu)
	rng := rand.New(rand.NewSource(seed))
	span := int64(m.CalCycles/4) + 1
	for batch := 0; ref.iter < iters; batch++ {
		limit, quota := uint64(never), uint64(never)
		switch rng.Intn(4) {
		case 0:
			limit = ref.Now() + uint64(rng.Int63n(span))
		case 1:
			quota = ref.Committed() + 1 + uint64(rng.Intn(m.TraceLen/2))
		case 2:
			limit = ref.Now() + uint64(rng.Int63n(span))
			quota = ref.Committed() + 1 + uint64(rng.Intn(m.TraceLen/2))
		default:
			limit = ref.Now() // an empty batch
		}
		rNow, rCom := stepUntilRef(ref, limit, quota)
		fNow, fCom := fast.StepUntil(limit, quota)
		if fNow != rNow || fCom != rCom {
			return "StepUntil's result"
		}
		if d := sameReplay(ref, fast, ru, fu); d != "" {
			return d
		}
	}
	return ""
}

// never is a clock/quota bound no test replay reaches.
const never = ^uint64(0)

// TestStepUntilMatchesStep pins StepUntil's memoized translations and
// skipped resident prefetches to the plain per-node replay: on a real
// uncore, every suite model (and a model with no nodes) replayed by
// StepUntil in irregular batches leaves the machine and the uncore in
// exactly the state Step leaves them in, after every batch, through
// several iterations. The machines run on different cores of a
// four-core uncore under LRU and DRRIP.
func TestStepUntilMatchesStep(t *testing.T) {
	models := append(slices.Clone(suiteModels(t)), &Model{Name: "none", TraceLen: 1000, Head: 250})
	skipped := 0
	for i, m := range models {
		pol := [...]cache.PolicyName{cache.LRU, cache.DRRIP}[i%2]
		if d := replayDiff(m, uncore.ConfigFor(4, pol), i%4, int64(i+1), 3); d != "" {
			t.Errorf("%s under %s: StepUntil and Step differ in %s", m.Name, pol, d)
		}
		for _, s := range m.Satellites {
			if s.Prefetch {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no suite model has a prefetch satellite: the skip went untested")
	}
}

// TestMachinesShareModel runs two machines on one Model concurrently by
// StepUntil, each on its own uncore, and demands what serial Step
// replays (which memoize nothing) give. The second uncore has first
// mapped the model's pages in reverse order, so the two machines'
// physical addresses differ, and so do their results: a memo kept in
// the shared Model would hand one machine the other's addresses, and
// race under -race.
func TestMachinesShareModel(t *testing.T) {
	m, _ := buildModel(t, "mcf")
	cfg := uncore.ConfigFor(1, cache.LRU)
	newUncore := func(k int) *uncore.Uncore {
		u := uncore.MustNew(cfg)
		for j := len(m.Nodes) - 1; k == 1 && j >= 0; j-- {
			u.Translate(0, m.Nodes[j].VAddr)
		}
		return u
	}
	type end struct {
		now, committed uint64
		stats          uncore.Stats
	}
	run := func(k int, batch func(*Machine, uint64, uint64) (uint64, uint64)) end {
		u := newUncore(k)
		ma := MustNewMachine(0, m, u)
		for ma.iter < 3 {
			batch(ma, ma.Now()+5000, never)
		}
		return end{ma.Now(), ma.Committed(), u.Stats()}
	}
	var got [2]end
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = run(k, (*Machine).StepUntil)
		}()
	}
	wg.Wait()
	want := [2]end{run(0, stepUntilRef), run(1, stepUntilRef)}
	if want[0] == want[1] {
		t.Fatal("both page layouts give one result: a shared memo would go unseen")
	}
	for k := range got {
		if got[k] != want[k] {
			t.Errorf("machine %d: concurrent StepUntil run ended at %+v, serial Step run at %+v", k, got[k], want[k])
		}
	}
}

// TestStepUntilAllocationFree pins the batched replay at zero
// steady-state allocations on a real uncore, beside the uncore's own
// pin (uncore.TestAccessAllocationFree): once a first iteration has
// filled the translation memo, StepUntil allocates nothing.
func TestStepUntilAllocationFree(t *testing.T) {
	for _, name := range []string{"mcf", "povray", "gcc"} {
		m, _ := buildModel(t, name)
		ma := MustNewMachine(0, m, uncore.MustNew(uncore.ConfigFor(1, cache.LRU)))
		ma.StepUntil(never, uint64(m.TraceLen)) // fill the memo
		avg := testing.AllocsPerRun(20, func() {
			ma.StepUntil(never, ma.Committed()+uint64(m.TraceLen)/4)
		})
		if avg != 0 {
			t.Errorf("%s: steady-state StepUntil allocates %.2f times per batch, want 0", name, avg)
		}
	}
}
