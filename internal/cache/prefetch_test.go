package cache

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNextLine(t *testing.T) {
	p := &nextLinePrefetcher{}
	if got := p.Observe(0, 0x1000, false); len(got) != 0 {
		t.Errorf("next-line fired on hit: %v", got)
	}
	got := p.Observe(0, 0x1010, true)
	if len(got) != 1 || got[0] != 0x1040 {
		t.Errorf("next-line proposed %v, want [0x1040]", got)
	}
}

func TestIPStrideLocksOntoStride(t *testing.T) {
	p := newIPStride(2)
	pc := uint64(0x400100)
	var got []uint64
	addr := uint64(0x10000)
	for i := 0; i < 6; i++ {
		got = p.Observe(pc, addr, true)
		addr += 128
	}
	// After several constant-stride observations, prefetches fire 2 ahead.
	if len(got) != 2 {
		t.Fatalf("stride prefetcher proposed %v, want 2 addresses", got)
	}
	last := addr - 128 // address of the final observation
	if got[0] != AlignLine(last+128) || got[1] != AlignLine(last+256) {
		t.Errorf("stride proposals %#x,%#x want %#x,%#x", got[0], got[1], last+128, last+256)
	}
}

func TestIPStrideDistinguishesPCs(t *testing.T) {
	p := newIPStride(1)
	// Interleave two PCs with different strides; both must train.
	a, b := uint64(0x1000), uint64(0x900000)
	var gotA, gotB []uint64
	for i := 0; i < 8; i++ {
		// Observe's result aliases an internal buffer, so copy before the
		// next call.
		gotA = append(gotA[:0], p.Observe(0x400100, a, true)...)
		gotB = append(gotB[:0], p.Observe(0x400200, b, true)...)
		a += 64
		b += 256
	}
	if len(gotA) != 1 || gotA[0] != AlignLine(a-64+64) {
		t.Errorf("PC A proposals %v", gotA)
	}
	if len(gotB) != 1 || gotB[0] != AlignLine(b-256+256) {
		t.Errorf("PC B proposals %v", gotB)
	}
}

func TestIPStrideResetsOnIrregular(t *testing.T) {
	p := newIPStride(1)
	pc := uint64(0x400100)
	addr := uint64(0x10000)
	for i := 0; i < 5; i++ {
		p.Observe(pc, addr, true)
		addr += 64
	}
	// Break the pattern: confidence must drop, no immediate prefetch on
	// the next (new-stride) access.
	if got := p.Observe(pc, 0x999999, true); len(got) != 0 {
		t.Errorf("prefetch after pattern break: %v", got)
	}
	if got := p.Observe(pc, 0x99A000, true); len(got) != 0 {
		t.Errorf("prefetch before re-training: %v", got)
	}
}

func TestStreamDetectsAscendingLines(t *testing.T) {
	p := newStream(4)
	base := uint64(0x40000)
	var got []uint64
	for i := 0; i < 5; i++ {
		got = p.Observe(0, base+uint64(i)*LineSize, true)
	}
	if len(got) != 4 {
		t.Fatalf("stream proposed %d addresses, want 4", len(got))
	}
	wantFirst := base + 5*LineSize
	if got[0] != wantFirst {
		t.Errorf("first stream proposal %#x, want %#x", got[0], wantFirst)
	}
}

func TestStreamIgnoresRandomTraffic(t *testing.T) {
	p := newStream(4)
	addrs := []uint64{0x1000, 0x88000, 0x3000, 0xF2000, 0x51000}
	for _, a := range addrs {
		if got := p.Observe(0, a, true); len(got) != 0 {
			t.Errorf("stream fired on random access %#x: %v", a, got)
		}
	}
}

func TestStreamTracksMultipleStreams(t *testing.T) {
	p := newStream(1)
	a, b := uint64(0x10000), uint64(0x900000)
	var gotA, gotB []uint64
	for i := 0; i < 4; i++ {
		gotA = p.Observe(0, a, true)
		gotB = p.Observe(0, b, true)
		a += LineSize
		b += LineSize
	}
	if len(gotA) != 1 || len(gotB) != 1 {
		t.Errorf("concurrent streams proposals: %v / %v", gotA, gotB)
	}
}

// TestStrideNextDeduplicates trains the DL1 pairing on a stride of one
// line, so that the stride's first proposal on a miss is the next line,
// which the next-line part proposes too: it must appear once.
func TestStrideNextDeduplicates(t *testing.T) {
	p := NewStrideNext(2)
	pc, addr := uint64(0x400100), uint64(0x10000)
	var got []uint64
	for i := 0; i < 4; i++ {
		got = p.Observe(pc, addr, true)
		addr += LineSize
	}
	last := addr - LineSize
	if len(got) != 2 || got[0] != last+LineSize || got[1] != last+2*LineSize {
		t.Errorf("stride + next-line proposed %#x, want [%#x %#x]", got, last+LineSize, last+2*LineSize)
	}
}

// TestStrideStreamIgnoresMiss feeds two LLC pairings one seeded demand
// stream, one with random miss flags and the other with their negation:
// since neither part reads the flag, they must propose the same lines
// after every call.
func TestStrideStreamIgnoresMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := NewStrideStream(2), NewStrideStream(2)
	heads := make([]uint64, 8)
	for i := range heads {
		heads[i] = uint64(rng.Intn(1 << 12))
	}
	proposed := 0
	for n := 0; n < 20000; n++ {
		// Each head walks mostly ascending lines under its own PC, so
		// both the stride and the stream part train and fire.
		k := rng.Intn(len(heads))
		if rng.Intn(10) == 0 {
			heads[k] = uint64(rng.Intn(1 << 12))
		} else {
			heads[k]++
		}
		pc, addr, miss := 0x400000+uint64(k)*64, heads[k]*LineSize, rng.Intn(2) == 0
		got := slices.Clone(a.Observe(pc, addr, miss))
		if want := b.Observe(pc, addr, !miss); !slices.Equal(got, want) {
			t.Fatalf("call %d (pc %#x addr %#x): miss=%v proposed %#x, miss=%v proposed %#x",
				n, pc, addr, miss, got, !miss, want)
		}
		proposed += len(got)
	}
	if proposed == 0 {
		t.Fatal("the stream trained neither part: nothing was proposed")
	}
}
