package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// victimDigest fills a 64 kB 16-way cache under the policy with a seeded
// stream of n line addresses, mixed with demand accesses so hits and
// set-dueling misses move the policy state too, and returns the sha256
// of every eviction (set, evicted address, dirtiness) in order.
func victimDigest(name PolicyName, seed int64, n int) string {
	c := MustNew("LLC", 64<<10, 16, MustNewPolicy(name, seed))
	rng := rand.New(rand.NewSource(99))
	h := sha256.New()
	var rec [17]byte
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1<<14)) * LineSize
		if i%3 != 0 && c.Access(addr, i%2 == 0) {
			continue
		}
		ev := c.Fill(addr, rng.Intn(3) == 0, rng.Intn(4) == 0)
		if !ev.Valid {
			continue
		}
		set, _ := c.index(addr)
		binary.LittleEndian.PutUint64(rec[0:], uint64(set))
		binary.LittleEndian.PutUint64(rec[8:], ev.Addr)
		rec[16] = 0
		if ev.Dirty {
			rec[16] = 1
		}
		h.Write(rec[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPolicyVictimStreamsPinned pins the eviction sequence of the
// policies whose victims depend on their random stream (RND, and the
// BIP/BRRIP throttles of DIP and DRRIP), plus SHiP, LRU and FIFO, over a
// seeded access stream on two policy seeds. A change to how a policy
// draws from its seed — a different source, a wrapper that consumes
// extra values, a reordered call — changes these digests, and so does a
// change to how LRU or FIFO orders its ways.
func TestPolicyVictimStreamsPinned(t *testing.T) {
	want := map[string]string{
		// LRU and FIFO draw nothing, so each seed gives one stream.
		"LRU/1":    "47e91a82283985d930e5e095c7361d54eb615504a2eca2a1ecac9fb62d249793",
		"LRU/42":   "47e91a82283985d930e5e095c7361d54eb615504a2eca2a1ecac9fb62d249793",
		"FIFO/1":   "fe4eb486dcebaa452cf5073928cc489e28cdda7fb3db5fa6f794ec425ac69f9a",
		"FIFO/42":  "fe4eb486dcebaa452cf5073928cc489e28cdda7fb3db5fa6f794ec425ac69f9a",
		"RND/1":    "c4edee2d7e77ac38be917412ff898b0e90f4046606d2fddf492236c9cfbb7277",
		"RND/42":   "58be27ba593e953e9992a614dde22569aa3e0f914946918dfc85ac3ac79473c8",
		"DIP/1":    "7ec965021496c1f7138f5679abe7d9010f1fc1ea6f4561dd0ec6bf7b9d07b1bd",
		"DIP/42":   "c99377c023bd7ef8004bf9d4ecfb98b6b613a9c2f1c0b68735584d2b4cfe1484",
		"DRRIP/1":  "a4c18966bdf78ef468fb18285719af3f475aa9340b85a3aee57ac2c815c1f2c0",
		"DRRIP/42": "902d73ab724c3d666adb9da3bd380956d7ae83a4497a9ac4383297981b358286",
		// SHiP draws nothing, so both seeds give one stream.
		"SHiP/1":  "f1ad367969a50a5b0a3840703ddd64e0e1ef83939a6fc2a4560a5389d62b8b85",
		"SHiP/42": "f1ad367969a50a5b0a3840703ddd64e0e1ef83939a6fc2a4560a5389d62b8b85",
	}
	for _, name := range []PolicyName{LRU, FIFO, Random, DIP, DRRIP, SHIP} {
		for _, seed := range []int64{1, 42} {
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := victimDigest(name, seed, 60000); got != want[key] {
				t.Errorf("%s: victim digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestAccessWayMatchesAccess runs one seeded stream of demand accesses,
// probes, fills after a miss and fills of possibly present lines through
// two caches and a plain reference model (refCache) under every policy at
// 4, 8 and 16 ways, and every policy but LRU (which refuses more than 16
// ways) at 32. One cache looks lines up by Access's set scan, the other
// by AccessWay with the ways Fill and FillMiss reported, kept in a map as
// the uncore keeps them. After every call both agree with
// the reference on the hit, the way Way finds, the eviction (validity,
// address, dirtiness, way), the statistics and the contents of the set
// the call touched. Under LRU the reference keeps per-way use stamps, so
// the recency words are checked against an independent order.
func TestAccessWayMatchesAccess(t *testing.T) {
	const sets = 16
	for _, ways := range []int{4, 8, 16, 32} {
		for _, name := range []PolicyName{LRU, FIFO, Random, DIP, DRRIP, SRRIP, SHIP, PLRU} {
			if name == LRU && ways > 16 {
				continue
			}
			key := fmt.Sprintf("%s/%d-way", name, ways)
			size := sets * ways * LineSize
			scan := MustNew("LLC", size, ways, MustNewPolicy(name, 7))
			memo := MustNew("LLC", size, ways, MustNewPolicy(name, 7))
			refPol := MustNewPolicy(name, 7)
			if name == LRU {
				refPol = &refLRU{}
			}
			ref := newRefCache(sets, ways, refPol)
			memoWays := map[uint64]int{}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(2*sets*ways)) * LineSize
				write := rng.Intn(3) == 0
				prefetch := rng.Intn(4) == 0
				want := ref.way(addr)
				if got := scan.Way(addr); got != want {
					t.Fatalf("%s call %d: Way %d, reference %d", key, i, got, want)
				}
				if got, ok := memoWays[addr]; ok != (want >= 0) || ok && got != want {
					t.Fatalf("%s call %d: Fill reported way %d (%v), reference %d", key, i, got, ok, want)
				}
				var evs []Eviction // the reference's, then scan's and memo's
				switch op := rng.Intn(4); op {
				case 0, 1: // a demand access, and on a miss the fill after it
					hit := ref.access(addr, write)
					if got := scan.Access(addr, write); got != hit {
						t.Fatalf("%s call %d: Access hit %v, reference %v", key, i, got, hit)
					}
					if got := memo.AccessWay(addr, want, write); got != hit {
						t.Fatalf("%s call %d: AccessWay hit %v, reference %v", key, i, got, hit)
					}
					if hit || op == 1 {
						break
					}
					evs = []Eviction{ref.fill(addr, write, prefetch), scan.FillMiss(addr, write, prefetch), memo.FillMiss(addr, write, prefetch)}
				case 2: // a probe
					if got := scan.Probe(addr); got != (want >= 0) {
						t.Fatalf("%s call %d: Probe %v, reference way %d", key, i, got, want)
					}
					continue
				case 3: // a fill of a line that may be present
					evs = []Eviction{ref.fill(addr, write, prefetch), scan.Fill(addr, write, prefetch), memo.Fill(addr, write, prefetch)}
				}
				if evs != nil {
					if evs[1] != evs[0] || evs[2] != evs[0] {
						t.Fatalf("%s call %d: evictions %+v and %+v, reference %+v", key, i, evs[1], evs[2], evs[0])
					}
					if evs[0].Valid {
						delete(memoWays, evs[0].Addr)
					}
					memoWays[addr] = evs[0].Way
				}
				for _, c := range []*Cache{scan, memo} {
					if c.Stats() != ref.stats {
						t.Fatalf("%s call %d: stats %+v, reference %+v", key, i, c.Stats(), ref.stats)
					}
					set, _ := c.index(addr)
					for w, l := range c.set(set) {
						if got, want := refLineOf(c, set, l), ref.lines[set*ways+w]; got != want {
							t.Fatalf("%s call %d: set %d way %d holds %+v, reference %+v", key, i, set, w, got, want)
						}
					}
				}
			}
		}
	}
}

// refCache is a plain model of Cache: one struct per way, a scan that
// stops at the first match, a scan for the first invalid way, and the
// policy's hooks called where the cache calls them.
type refCache struct {
	sets, ways int
	lines      []refLine
	policy     Policy
	obs        AddressAware
	stats      Stats
}

// refLine is one line of refCache; an invalid line is the zero value.
type refLine struct {
	valid, dirty, pref bool
	addr               uint64 // line-aligned
}

func newRefCache(sets, ways int, p Policy) *refCache {
	if err := p.Attach(sets, ways); err != nil {
		panic(err)
	}
	obs, _ := p.(AddressAware)
	return &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways), policy: p, obs: obs}
}

// refLineOf reads line l of set in c as a refLine.
func refLineOf(c *Cache, set int, l line) refLine {
	if !l.valid() {
		return refLine{}
	}
	return refLine{valid: true, dirty: l.dirty(), pref: l&linePref != 0, addr: c.lineAddr(set, l.tag())}
}

func (r *refCache) set(addr uint64) int { return int(addr / LineSize % uint64(r.sets)) }

// way returns the first way of addr's set holding its line, or -1.
func (r *refCache) way(addr uint64) int {
	set := r.set(addr)
	for w := 0; w < r.ways; w++ {
		if l := r.lines[set*r.ways+w]; l.valid && l.addr == AlignLine(addr) {
			return w
		}
	}
	return -1
}

func (r *refCache) access(addr uint64, write bool) bool {
	set := r.set(addr)
	r.stats.Accesses++
	if r.obs != nil {
		r.obs.ObserveAddr(addr)
	}
	w := r.way(addr)
	if w < 0 {
		r.stats.Misses++
		r.policy.OnMiss(set)
		return false
	}
	l := &r.lines[set*r.ways+w]
	r.stats.Hits++
	if write {
		l.dirty = true
	}
	if l.pref {
		r.stats.PrefetchHits++
		l.pref = false
	}
	r.policy.OnHit(set, w)
	return true
}

func (r *refCache) fill(addr uint64, write, prefetch bool) Eviction {
	set := r.set(addr)
	if r.obs != nil {
		r.obs.ObserveAddr(addr)
	}
	if w := r.way(addr); w >= 0 {
		if write {
			r.lines[set*r.ways+w].dirty = true
		}
		return Eviction{Way: w}
	}
	way := -1
	for w := 0; w < r.ways; w++ {
		if !r.lines[set*r.ways+w].valid {
			way = w
			break
		}
	}
	var ev Eviction
	if way < 0 {
		way = r.policy.Victim(set)
		v := r.lines[set*r.ways+way]
		ev = Eviction{Valid: true, Dirty: v.dirty, Addr: v.addr}
		if v.dirty {
			r.stats.Writebacks++
		}
	}
	if prefetch {
		r.stats.PrefetchFills++
	}
	r.lines[set*r.ways+way] = refLine{valid: true, dirty: write, pref: prefetch, addr: AlignLine(addr)}
	r.policy.OnFill(set, way)
	ev.Way = way
	return ev
}

// refLRU is least-recently-used by a global use stamp per way: the victim
// is the way with the smallest stamp, the lowest such way on a tie.
type refLRU struct {
	ways   int
	clock  uint64
	stamps []uint64
}

func (p *refLRU) Name() string { return string(LRU) }

func (p *refLRU) Attach(sets, ways int) error {
	p.ways, p.stamps = ways, make([]uint64, sets*ways)
	return nil
}

func (p *refLRU) OnHit(set, way int)  { p.clock++; p.stamps[set*p.ways+way] = p.clock }
func (p *refLRU) OnMiss(int)          {}
func (p *refLRU) OnFill(set, way int) { p.OnHit(set, way) }

func (p *refLRU) Victim(set int) int {
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.stamps[set*p.ways+w] < p.stamps[set*p.ways+best] {
			best = w
		}
	}
	return best
}
