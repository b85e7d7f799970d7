package cache

import (
	"fmt"
	"slices"
)

// RRIP policies (Jaleel et al., ISCA 2010) predict re-reference intervals
// with a 2-bit RRPV per line. SRRIP inserts at "long" (RRPV = max-1) and
// promotes to "near-immediate" (0) on a hit. BRRIP inserts at "distant"
// (max) except for a 1/32 probability of "long". DRRIP set-duels between
// the two with a PSEL counter, like DIP.

// rripMaxRRPV is the distant re-reference value for 2-bit RRPV.
const rripMaxRRPV = 3

// rripLeaderPeriod and rripPSELMax mirror the DIP dueling parameters.
const (
	rripLeaderPeriod = 32
	rripPSELMax      = 1023
	brripEpsilonDen  = 32
)

// rripCore holds the RRPV array shared by SRRIP/BRRIP/DRRIP.
type rripCore struct {
	sets, ways int
	rrpv       []uint8
}

func (c *rripCore) attach(sets, ways int) error {
	if sets <= 0 || ways <= 0 {
		return fmt.Errorf("rrip: bad geometry %dx%d", sets, ways)
	}
	c.sets, c.ways = sets, ways
	c.rrpv = make([]uint8, sets*ways)
	return nil
}

// clone returns c with its own RRPV array.
func (c rripCore) clone() rripCore {
	c.rrpv = slices.Clone(c.rrpv)
	return c
}

func (c *rripCore) hit(set, way int) { c.rrpv[set*c.ways+way] = 0 }

// victim finds the first way at distant RRPV, aging the set until one
// exists (guaranteed to terminate: each pass increments all values).
func (c *rripCore) victim(set int) int {
	base := set * c.ways
	for {
		for w := 0; w < c.ways; w++ {
			if c.rrpv[base+w] == rripMaxRRPV {
				return w
			}
		}
		for w := 0; w < c.ways; w++ {
			c.rrpv[base+w]++
		}
	}
}

// ---------------------------------------------------------------------------
// SRRIP

type srripPolicy struct {
	rripCore
}

// NewSRRIPPolicy returns a static RRIP policy (hit-priority, 2-bit).
func NewSRRIPPolicy() Policy { return &srripPolicy{} }

func (p *srripPolicy) Name() string                { return string(SRRIP) }
func (p *srripPolicy) Attach(sets, ways int) error { return p.attach(sets, ways) }
func (p *srripPolicy) OnHit(set, way int)          { p.hit(set, way) }
func (p *srripPolicy) OnMiss(int)                  {}
func (p *srripPolicy) Victim(set int) int          { return p.victim(set) }

func (p *srripPolicy) Clone() Policy { return &srripPolicy{p.rripCore.clone()} }

func (p *srripPolicy) OnFill(set, way int) {
	p.rrpv[set*p.ways+way] = rripMaxRRPV - 1
}

// ---------------------------------------------------------------------------
// DRRIP

type drripPolicy struct {
	rripCore
	psel int
	rng  *seededRand
}

// NewDRRIPPolicy returns a dynamic RRIP policy dueling SRRIP vs BRRIP.
func NewDRRIPPolicy(seed int64) Policy {
	return &drripPolicy{rng: newSeededRand(seed), psel: (rripPSELMax + 1) / 2}
}

func (p *drripPolicy) Name() string                { return string(DRRIP) }
func (p *drripPolicy) Attach(sets, ways int) error { return p.attach(sets, ways) }
func (p *drripPolicy) OnHit(set, way int)          { p.hit(set, way) }
func (p *drripPolicy) Victim(set int) int          { return p.victim(set) }

func (p *drripPolicy) Clone() Policy {
	return &drripPolicy{rripCore: p.rripCore.clone(), psel: p.psel, rng: p.rng.clone()}
}

// leaderKind: 0 = follower, 1 = SRRIP leader, 2 = BRRIP leader.
func (p *drripPolicy) leaderKind(set int) int {
	switch set % rripLeaderPeriod {
	case 0:
		return 1
	case rripLeaderPeriod / 2:
		return 2
	}
	return 0
}

func (p *drripPolicy) OnMiss(set int) {
	switch p.leaderKind(set) {
	case 1: // miss under SRRIP: evidence for BRRIP
		if p.psel < rripPSELMax {
			p.psel++
		}
	case 2:
		if p.psel > 0 {
			p.psel--
		}
	}
}

func (p *drripPolicy) useBRRIP(set int) bool {
	switch p.leaderKind(set) {
	case 1:
		return false
	case 2:
		return true
	}
	return p.psel >= (rripPSELMax+1)/2
}

func (p *drripPolicy) OnFill(set, way int) {
	idx := set*p.ways + way
	if p.useBRRIP(set) && p.rng.Intn(brripEpsilonDen) != 0 {
		p.rrpv[idx] = rripMaxRRPV
		return
	}
	p.rrpv[idx] = rripMaxRRPV - 1
}
