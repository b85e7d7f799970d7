package cache

import (
	"fmt"
	"math/rand"
)

// DIP implements Dynamic Insertion Policy (Qureshi et al., ISCA 2007):
// set-dueling between traditional LRU insertion (at MRU) and Bimodal
// Insertion (BIP, which inserts at the LRU position except for a 1/32
// probability of MRU insertion). A saturating PSEL counter driven by
// misses in dedicated leader sets picks the winner for follower sets.

// dipLeaderPeriod spaces the leader sets: within every 32-set
// constituency, one set leads for LRU insertion and one for BIP.
const dipLeaderPeriod = 32

// dipPSELMax is the saturating limit of the 10-bit policy selector.
const dipPSELMax = 1023

// bipEpsilonDenominator gives BIP's 1/32 MRU-insertion probability.
const bipEpsilonDenominator = 32

type dipPolicy struct {
	sets, ways int
	clock      int64   // increments for MRU stamps
	floor      int64   // decrements for LRU-position stamps
	stamps     []int64 // recency stamps; larger = more recent
	psel       int     // >= (max+1)/2 selects BIP in follower sets
	rng        *rand.Rand
}

// NewDIPPolicy returns a DIP replacement policy.
func NewDIPPolicy(seed int64) Policy {
	return &dipPolicy{rng: rand.New(rand.NewSource(seed)), psel: (dipPSELMax + 1) / 2}
}

func (p *dipPolicy) Name() string { return string(DIP) }

func (p *dipPolicy) Attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("dip: bad geometry %dx%d", sets, ways)
	}
	p.sets, p.ways = sets, ways
	p.stamps = make([]int64, sets*ways)
	p.floor = -1
	return nil
}

// leaderKind classifies a set: 0 = follower, 1 = LRU leader, 2 = BIP leader.
func (p *dipPolicy) leaderKind(set int) int {
	switch set % dipLeaderPeriod {
	case 0:
		return 1
	case dipLeaderPeriod / 2:
		return 2
	}
	return 0
}

func (p *dipPolicy) OnHit(set, way int) {
	p.clock++
	p.stamps[set*p.ways+way] = p.clock
}

func (p *dipPolicy) OnMiss(set int) {
	switch p.leaderKind(set) {
	case 1: // miss under LRU insertion: evidence for BIP
		if p.psel < dipPSELMax {
			p.psel++
		}
	case 2: // miss under BIP insertion: evidence for LRU
		if p.psel > 0 {
			p.psel--
		}
	}
}

func (p *dipPolicy) Victim(set int) int {
	base := set * p.ways
	best, bestStamp := 0, p.stamps[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamps[base+w]; s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

// useBIP decides the insertion flavour for a fill into set.
func (p *dipPolicy) useBIP(set int) bool {
	switch p.leaderKind(set) {
	case 1:
		return false
	case 2:
		return true
	}
	return p.psel >= (dipPSELMax+1)/2
}

func (p *dipPolicy) OnFill(set, way int) {
	idx := set*p.ways + way
	if p.useBIP(set) && p.rng.Intn(bipEpsilonDenominator) != 0 {
		// Insert at the LRU position: older than everything resident.
		p.stamps[idx] = p.floor
		p.floor--
		return
	}
	p.clock++
	p.stamps[idx] = p.clock
}

// PSEL exposes the selector for tests and ablation studies.
func (p *dipPolicy) PSEL() int { return p.psel }
