package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny builds a small cache for focused tests: 4 sets x 2 ways.
func tiny(t *testing.T, p Policy) *Cache {
	t.Helper()
	c, err := New("t", 4*2*LineSize, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func addrFor(set, tag int) uint64 {
	// 4 sets -> 2 set bits above the 6 line-offset bits.
	return uint64(tag)<<8 | uint64(set)<<6
}

func TestNewRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		size, ways int
	}{
		{0, 4},
		{1024, 0},
		{100, 2},            // not a line multiple
		{6 * LineSize, 2},   // 3 sets, not a power of two
		{17 * LineSize, 17}, // LRU names at most 16 ways
		{64 * LineSize, 32},
	}
	for _, c := range cases {
		if _, err := New("bad", c.size, c.ways, NewLRUPolicy()); err == nil {
			t.Errorf("New(%d,%d) accepted bad geometry", c.size, c.ways)
		}
	}
}

func TestGeometryAccessors(t *testing.T) {
	c := MustNew("llc", 2*1024*1024, 16, NewLRUPolicy())
	if c.Ways() != 16 {
		t.Errorf("ways %d", c.Ways())
	}
	if got, want := c.Sets(), 2*1024*1024/(16*LineSize); got != want {
		t.Errorf("sets %d, want %d", got, want)
	}
	if c.SizeBytes() != 2*1024*1024 {
		t.Errorf("size %d", c.SizeBytes())
	}
	if c.Name() != "llc" {
		t.Errorf("name %q", c.Name())
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a := addrFor(1, 5)
	if c.Access(a, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(a, false, false)
	if !c.Access(a, false) {
		t.Fatal("post-fill access missed")
	}
	// Another address in the same line hits too.
	if !c.Access(a+63, false) {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a := addrFor(0, 1)
	c.Fill(a, false, false)
	before := c.Stats()
	if !c.Probe(a) {
		t.Fatal("probe missed resident line")
	}
	if c.Probe(addrFor(0, 9)) {
		t.Fatal("probe hit absent line")
	}
	if c.Stats() != before {
		t.Fatal("probe changed statistics")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a, b, x := addrFor(2, 1), addrFor(2, 2), addrFor(2, 3)
	c.Fill(a, false, false)
	c.Fill(b, false, false)
	c.Access(a, false) // a is now MRU
	ev := c.Fill(x, false, false)
	if !ev.Valid || ev.Addr != AlignLine(b) {
		t.Fatalf("LRU evicted %+v, want %#x", ev, b)
	}
	if !c.Probe(a) || c.Probe(b) || !c.Probe(x) {
		t.Fatal("LRU contents wrong after eviction")
	}
}

func TestFIFOEvictsFirstInEvenIfHit(t *testing.T) {
	c := tiny(t, NewFIFOPolicy())
	a, b, x := addrFor(2, 1), addrFor(2, 2), addrFor(2, 3)
	c.Fill(a, false, false)
	c.Fill(b, false, false)
	c.Access(a, false) // hit must NOT protect a under FIFO
	ev := c.Fill(x, false, false)
	if !ev.Valid || ev.Addr != AlignLine(a) {
		t.Fatalf("FIFO evicted %+v, want %#x", ev, a)
	}
}

func TestRandomPolicyVictimRange(t *testing.T) {
	p := NewRandomPolicy(1)
	if err := p.Attach(4, 8); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		v := p.Victim(0)
		if v < 0 || v >= 8 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 6 {
		t.Errorf("random victims covered only %d ways of 8", len(seen))
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a, b, x := addrFor(3, 1), addrFor(3, 2), addrFor(3, 3)
	c.Fill(a, true, false) // dirty fill (write-allocate)
	c.Fill(b, false, false)
	ev := c.Fill(x, false, false)
	if !ev.Valid || !ev.Dirty || ev.Addr != AlignLine(a) {
		t.Fatalf("eviction %+v, want dirty %#x", ev, a)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteHitDirties(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a, b, x := addrFor(3, 1), addrFor(3, 2), addrFor(3, 3)
	c.Fill(a, false, false)
	c.Access(a, true) // write hit dirties the line
	c.Fill(b, false, false)
	c.Access(b, false)
	ev := c.Fill(x, false, false)
	if !ev.Dirty {
		t.Fatal("write-hit line evicted clean")
	}
}

func TestFillExistingLineIsNoEviction(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a := addrFor(0, 1)
	c.Fill(a, false, false)
	ev := c.Fill(a, false, false)
	if ev.Valid {
		t.Fatalf("refill of resident line evicted %+v", ev)
	}
}

func TestPrefetchStats(t *testing.T) {
	c := tiny(t, NewLRUPolicy())
	a := addrFor(0, 1)
	c.Fill(a, false, true) // prefetch fill
	s := c.Stats()
	if s.PrefetchFills != 1 {
		t.Fatalf("prefetch fills %d", s.PrefetchFills)
	}
	c.Access(a, false)
	if c.Stats().PrefetchHits != 1 {
		t.Fatalf("prefetch hits %d", c.Stats().PrefetchHits)
	}
	// A second access is an ordinary hit.
	c.Access(a, false)
	if c.Stats().PrefetchHits != 1 {
		t.Fatal("prefetch hit counted twice")
	}
}

func TestMPK(t *testing.T) {
	s := Stats{Misses: 50}
	if got := s.MPK(10000); got != 5 {
		t.Errorf("MPK = %g, want 5", got)
	}
	if got := s.MPK(0); got != 0 {
		t.Errorf("MPK(0 instructions) = %g", got)
	}
}

func TestNewPolicyByName(t *testing.T) {
	for _, name := range append(PaperPolicies(), SRRIP, PLRU, SHIP) {
		p, err := NewPolicy(name, 1)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", name, err)
		}
		if p.Name() != string(name) {
			t.Errorf("policy name %q, want %q", p.Name(), name)
		}
	}
	if _, err := NewPolicy("CLOCK", 1); err == nil {
		t.Error("NewPolicy accepted unknown name")
	}
}

func TestPaperPoliciesOrder(t *testing.T) {
	want := []PolicyName{LRU, Random, FIFO, DIP, DRRIP}
	got := PaperPolicies()
	if len(got) != len(want) {
		t.Fatalf("%d policies", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("policy %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// A cyclic scan over a working set slightly larger than the cache is the
// canonical LRU pathology: LRU gets ~0 hits while BIP-style insertion
// (DIP) retains part of the set. DIP must beat LRU here.
func TestDIPBeatsLRUOnThrash(t *testing.T) {
	run := func(p Policy) Stats {
		c := MustNew("x", 64*1024, 16, p)       // 64 KB
		lines := (64 * 1024 / LineSize) * 5 / 4 // 1.25x capacity
		for pass := 0; pass < 30; pass++ {
			for i := 0; i < lines; i++ {
				addr := uint64(i) * LineSize
				if !c.Access(addr, false) {
					c.Fill(addr, false, false)
				}
			}
		}
		return c.Stats()
	}
	lru := run(NewLRUPolicy())
	dip := run(NewDIPPolicy(1))
	if lru.Hits >= lru.Accesses/10 {
		t.Fatalf("LRU unexpectedly hit %d/%d on thrash", lru.Hits, lru.Accesses)
	}
	if dip.Hits <= lru.Hits*2 {
		t.Errorf("DIP hits %d not clearly above LRU hits %d on thrashing scan", dip.Hits, lru.Hits)
	}
}

// DRRIP should likewise outperform LRU on a thrashing scan.
func TestDRRIPBeatsLRUOnThrash(t *testing.T) {
	run := func(p Policy) Stats {
		c := MustNew("x", 64*1024, 16, p)
		lines := (64 * 1024 / LineSize) * 5 / 4
		for pass := 0; pass < 30; pass++ {
			for i := 0; i < lines; i++ {
				addr := uint64(i) * LineSize
				if !c.Access(addr, false) {
					c.Fill(addr, false, false)
				}
			}
		}
		return c.Stats()
	}
	lru := run(NewLRUPolicy())
	drrip := run(NewDRRIPPolicy(1))
	if drrip.Hits <= lru.Hits*2 {
		t.Errorf("DRRIP hits %d not clearly above LRU hits %d", drrip.Hits, lru.Hits)
	}
}

// On a reuse-friendly working set that fits, all policies should converge
// to near-100% hits; LRU must not lose to RND.
func TestPoliciesOnFittingWorkingSet(t *testing.T) {
	for _, name := range PaperPolicies() {
		c := MustNew("x", 64*1024, 16, MustNewPolicy(name, 2))
		lines := (64 * 1024 / LineSize) / 2
		for pass := 0; pass < 20; pass++ {
			for i := 0; i < lines; i++ {
				addr := uint64(i) * LineSize
				if !c.Access(addr, false) {
					c.Fill(addr, false, false)
				}
			}
		}
		s := c.Stats()
		hitRate := float64(s.Hits) / float64(s.Accesses)
		if hitRate < 0.9 {
			t.Errorf("%s: hit rate %.3f on fitting working set, want > 0.9", name, hitRate)
		}
	}
}

// SRRIP core invariant: victim always has distant RRPV after aging.
func TestRRIPVictimTerminates(t *testing.T) {
	p := NewSRRIPPolicy().(*srripPolicy)
	if err := p.Attach(2, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.OnFill(0, i)
	}
	p.OnHit(0, 2) // rrpv[2] = 0
	v := p.Victim(0)
	if v == 2 {
		t.Error("SRRIP evicted the just-hit line")
	}
	if v < 0 || v >= 4 {
		t.Errorf("victim %d out of range", v)
	}
}

func TestDIPLeaderSetsDriveSelector(t *testing.T) {
	p := NewDIPPolicy(3).(*dipPolicy)
	if err := p.Attach(64, 4); err != nil {
		t.Fatal(err)
	}
	start := p.PSEL()
	// Misses in LRU leader sets (set 0, 32) push PSEL up.
	for i := 0; i < 100; i++ {
		p.OnMiss(0)
	}
	if p.PSEL() <= start {
		t.Error("PSEL did not increase on LRU-leader misses")
	}
	// Misses in BIP leader sets (set 16, 48) push PSEL down.
	for i := 0; i < 300; i++ {
		p.OnMiss(16)
	}
	if p.PSEL() >= start {
		t.Error("PSEL did not decrease on BIP-leader misses")
	}
	// Follower misses leave PSEL alone.
	mid := p.PSEL()
	p.OnMiss(5)
	if p.PSEL() != mid {
		t.Error("follower miss moved PSEL")
	}
}

func TestVictimAlwaysInRangeProperty(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		for _, name := range append(PaperPolicies(), SRRIP) {
			p := MustNewPolicy(name, seed)
			if err := p.Attach(8, 4); err != nil {
				return false
			}
			// Fill everything, then replay random hit/miss/fill traffic.
			for s := 0; s < 8; s++ {
				for w := 0; w < 4; w++ {
					p.OnFill(s, w)
				}
			}
			for _, b := range ops {
				set := int(b) % 8
				switch b % 3 {
				case 0:
					p.OnHit(set, int(b/8)%4)
				case 1:
					p.OnMiss(set)
				case 2:
					v := p.Victim(set)
					if v < 0 || v >= 4 {
						return false
					}
					p.OnFill(set, v)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: cache contents after random traffic contain every address the
// last fill installed, and Access/Fill keep hit+miss == accesses.
func TestCacheAccountingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		c := MustNew("x", 8*1024, 4, MustNewPolicy(PaperPolicies()[trial%5], int64(trial)))
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1 << 16))
			if !c.Access(addr, rng.Intn(4) == 0) {
				c.Fill(addr, false, false)
				if !c.Probe(addr) {
					t.Fatal("line absent right after fill")
				}
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("accounting broken: %+v", s)
		}
	}
}
