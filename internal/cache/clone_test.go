package cache

import (
	"math/rand"
	"testing"
)

// allPolicies lists every shipped replacement policy, including the ones
// the paper sweep does not touch (SRRIP, PLRU, SHiP), so every clone is
// pinned.
var allPolicies = []PolicyName{LRU, Random, FIFO, DIP, DRRIP, SRRIP, PLRU, SHIP}

// drive performs n deterministic mixed accesses against c, returning a
// value folded from every observable outcome so divergence is loud.
func drive(c *Cache, rng *rand.Rand, n int) uint64 {
	var sig uint64
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1<<14)) * LineSize
		switch i % 5 {
		case 0:
			ev := c.Fill(addr, rng.Intn(3) == 0, rng.Intn(4) == 0)
			if ev.Valid {
				sig = sig*1099511628211 + ev.Addr + 1
				if ev.Dirty {
					sig++
				}
			}
		case 4:
			if c.Probe(addr) {
				sig = sig*1099511628211 + 7
			}
		default:
			if c.Access(addr, i%2 == 0) {
				sig = sig*1099511628211 + 3
			}
		}
	}
	return sig
}

// TestPolicyCheckpointRoundTrip drives a cache under every policy,
// clones it mid-stream and replays the same tail on the original and
// then on the clone: outcomes and statistics must match exactly, which
// they cannot if the two share any metadata.
func TestPolicyCheckpointRoundTrip(t *testing.T) {
	for _, name := range allPolicies {
		c, err := New("LLC", 64<<10, 16, MustNewPolicy(name, 42))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		drive(c, rng, 20000)

		clone := c.Clone()
		tailSeed := rng.Int63()
		want := drive(c, rand.New(rand.NewSource(tailSeed)), 20000)
		if got := drive(clone, rand.New(rand.NewSource(tailSeed)), 20000); got != want {
			t.Errorf("%s: clone diverges: signature %x, want %x", name, got, want)
		}
		if clone.Stats() != c.Stats() {
			t.Errorf("%s: stats diverge: %+v vs %+v", name, clone.Stats(), c.Stats())
		}
	}
}

// TestSetPolicyKeepsContents checks the fan-out hook: after SetPolicy
// the lines (tags, dirtiness) and stats survive while the replacement
// metadata restarts fresh and fully functional.
func TestSetPolicyKeepsContents(t *testing.T) {
	c, err := New("LLC", 64<<10, 16, MustNewPolicy(LRU, 42))
	if err != nil {
		t.Fatal(err)
	}
	drive(c, rand.New(rand.NewSource(99)), 20000)
	statsBefore := c.Stats()

	resident := make([]uint64, 0, 64)
	for a := uint64(0); a < 1<<14; a++ {
		if addr := a * LineSize; c.Probe(addr) {
			resident = append(resident, addr)
		}
	}
	if len(resident) == 0 {
		t.Fatal("no resident lines after warmup")
	}
	drrip := MustNewPolicy(DRRIP, 7)
	if err := c.SetPolicy(drrip); err != nil {
		t.Fatal(err)
	}
	// The LRU fast path must not outlive the swap.
	if c.policy != drrip || c.lru != nil {
		t.Fatalf("SetPolicy left policy %s (LRU alias %v)", c.policy.Name(), c.lru != nil)
	}
	for _, addr := range resident {
		if !c.Probe(addr) {
			t.Fatalf("line %#x evicted by SetPolicy", addr)
		}
	}
	if c.Stats() != statsBefore {
		t.Errorf("stats changed by SetPolicy: %+v vs %+v", c.Stats(), statsBefore)
	}
	// The swapped-in policy must drive further traffic without issue.
	drive(c, rand.New(rand.NewSource(3)), 20000)
}

// TestSeededRandStateRoundTrip pins the replayed RNG position that
// DIP/DRRIP/Random replacement clone through: a clone continues the
// exact draw sequence of its source, independently of it.
func TestSeededRandStateRoundTrip(t *testing.T) {
	r := newSeededRand(12345)
	for i := 0; i < 1000; i++ {
		r.Intn(32)
	}
	clone := r.clone()
	want := make([]int, 100)
	for i := range want {
		want[i] = r.Intn(32)
	}
	for i := range want {
		if got := clone.Intn(32); got != want[i] {
			t.Fatalf("draw %d after clone: %d, want %d", i, got, want[i])
		}
	}
}
