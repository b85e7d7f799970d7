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

// TestAccessWayMatchesAccess runs one seeded stream of demand accesses
// and fills through two caches under each policy: one looks lines up by
// Access's set scan, the other by AccessWay with the ways Fill reported,
// kept in a map as the uncore keeps them. After every call the two agree
// on the hit, the eviction, the statistics, and the way Way finds for
// every line the map holds.
func TestAccessWayMatchesAccess(t *testing.T) {
	for _, name := range []PolicyName{LRU, FIFO, Random, DIP, DRRIP, SRRIP, SHIP} {
		scan := MustNew("LLC", 16<<10, 16, MustNewPolicy(name, 7))
		memo := MustNew("LLC", 16<<10, 16, MustNewPolicy(name, 7))
		ways := map[uint64]int{}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(1<<11)) * LineSize
			write := rng.Intn(3) == 0
			if rng.Intn(3) != 0 {
				w, ok := ways[addr]
				if !ok {
					w = -1
				}
				if got, want := memo.AccessWay(addr, w, write), scan.Access(addr, write); got != want {
					t.Fatalf("%s call %d: AccessWay hit %v, Access %v", name, i, got, want)
				}
			} else {
				prefetch := rng.Intn(4) == 0
				got, want := memo.Fill(addr, write, prefetch), scan.Fill(addr, write, prefetch)
				if got != want {
					t.Fatalf("%s call %d: fills evicted %+v and %+v", name, i, got, want)
				}
				if got.Valid {
					delete(ways, got.Addr)
				}
				ways[addr] = got.Way
			}
			if memo.Stats() != scan.Stats() {
				t.Fatalf("%s call %d: stats %+v, want %+v", name, i, memo.Stats(), scan.Stats())
			}
			for a, w := range ways {
				if got := memo.Way(a); got != w {
					t.Fatalf("%s call %d: line %#x in way %d, Fill reported %d", name, i, a, got, w)
				}
			}
		}
	}
}
