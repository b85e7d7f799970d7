package cache

// SHiP — Signature-based Hit Predictor (Wu et al., MICRO 2011), the
// natural successor of the paper's DRRIP and a useful seventh policy for
// replacement ablations. This is the SHiP-mem variant: the signature is
// the memory region of the line (16 kB regions), hashed into a table of
// saturating counters (SHCT). Lines from signatures whose history says
// "never re-referenced" are inserted at distant RRPV and fall out
// quickly; everything else inserts like SRRIP.
//
// Per line, SHiP stores the filling signature and an outcome bit: a hit
// sets the bit and strengthens the signature's counter; an eviction with
// the bit still clear weakens it.

const (
	shipSHCTBits   = 14 // 16 k counters
	shipCtrMax     = 7  // 3-bit counters
	shipRegionBits = 14 // signature = line address / 16 kB region
)

// SHIP is the policy name of the SHiP-mem replacement policy.
const SHIP PolicyName = "SHiP"

type shipPolicy struct {
	rripCore
	shct     []uint8
	sig      []uint16 // filling signature per line
	reRef    []bool   // outcome bit per line
	pending  uint64   // line address observed before the next hook
	shctMask uint64
}

// NewSHIPPolicy returns a SHiP-mem policy over an SRRIP backbone.
func NewSHIPPolicy() Policy {
	return &shipPolicy{
		shct:     make([]uint8, 1<<shipSHCTBits),
		shctMask: 1<<shipSHCTBits - 1,
	}
}

func (p *shipPolicy) Name() string { return string(SHIP) }

func (p *shipPolicy) Attach(sets, ways int) error {
	if err := p.attach(sets, ways); err != nil {
		return err
	}
	p.sig = make([]uint16, sets*ways)
	p.reRef = make([]bool, sets*ways)
	// Start counters at a weakly-reused midpoint so cold signatures
	// insert conservatively (like SRRIP) until evidence accumulates.
	for i := range p.shct {
		p.shct[i] = 1
	}
	return nil
}

// ObserveAddr implements AddressAware: the cache announces the line
// address involved in the next hook.
func (p *shipPolicy) ObserveAddr(addr uint64) { p.pending = addr }

// signature maps the pending address to its SHCT index.
func (p *shipPolicy) signature() uint16 {
	region := p.pending >> shipRegionBits
	h := region * 0x9E3779B97F4A7C15
	return uint16(h >> (64 - shipSHCTBits))
}

func (p *shipPolicy) OnHit(set, way int) {
	p.hit(set, way)
	idx := set*p.ways + way
	if !p.reRef[idx] {
		p.reRef[idx] = true
		if ctr := &p.shct[p.sig[idx]]; *ctr < shipCtrMax {
			*ctr++
		}
	}
}

func (p *shipPolicy) OnMiss(int) {}

func (p *shipPolicy) Victim(set int) int {
	way := p.victim(set)
	// The evicted line trains its signature: never re-referenced means
	// the signature's lines are single-use.
	idx := set*p.ways + way
	if !p.reRef[idx] {
		if ctr := &p.shct[p.sig[idx]]; *ctr > 0 {
			*ctr--
		}
	}
	return way
}

func (p *shipPolicy) OnFill(set, way int) {
	idx := set*p.ways + way
	sig := p.signature()
	p.sig[idx] = sig
	p.reRef[idx] = false
	if p.shct[sig] == 0 {
		p.rrpv[idx] = rripMaxRRPV // predicted dead on arrival
	} else {
		p.rrpv[idx] = rripMaxRRPV - 1 // SRRIP insertion
	}
}

// SHCTCounter exposes one counter for tests.
func (p *shipPolicy) SHCTCounter(addr uint64) uint8 {
	p.pending = addr
	return p.shct[p.signature()]
}
