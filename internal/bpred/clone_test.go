package bpred

import (
	"math/rand"
	"testing"
)

// branchStream generates a deterministic synthetic branch stream with
// per-site bias and some history correlation, enough to train every
// predictor's tables.
func branchStream(seed int64, n int) func(yield func(pc uint64, taken bool)) {
	return func(yield func(pc uint64, taken bool)) {
		rng := rand.New(rand.NewSource(seed))
		hist := 0
		for i := 0; i < n; i++ {
			pc := 0x1000 + uint64(rng.Intn(64))*16
			taken := (pc>>4+uint64(hist))%3 != 0
			if rng.Intn(8) == 0 {
				taken = !taken
			}
			hist = (hist << 1) & 0xff
			if taken {
				hist |= 1
			}
			yield(pc, taken)
		}
	}
}

// TestPredictorCheckpointRoundTrip trains each predictor kind, clones
// it, runs the original on and then the clone over the same branches:
// the predictions and stats must be identical, which they cannot be if
// the two share any table.
func TestPredictorCheckpointRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Bimodal, GShare, Tournament, TAGE} {
		p, err := New(kind, 12, 8)
		if err != nil {
			t.Fatal(err)
		}
		branchStream(1, 20000)(func(pc uint64, taken bool) { p.Predict(pc, taken) })

		q := p.Clone()
		var want []bool
		branchStream(2, 5000)(func(pc uint64, taken bool) { want = append(want, p.Predict(pc, taken)) })
		i := 0
		branchStream(2, 5000)(func(pc uint64, taken bool) {
			if got := q.Predict(pc, taken); got != want[i] {
				t.Fatalf("%s: prediction %d diverges after clone", kind, i)
			}
			i++
		})
		if q.Stats() != p.Stats() {
			t.Errorf("%s: clone stats %+v, want %+v", kind, q.Stats(), p.Stats())
		}
	}
}

// TestTargetPredictorCheckpointRoundTrip does the same for the BTAC,
// indirect predictor and RAS.
func TestTargetPredictorCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBTAC(512, 4)
	ind := DefaultIndirect()
	ras := NewRAS(16)
	touch := func(n int) (sig uint64) {
		for i := 0; i < n; i++ {
			pc := 0x4000 + uint64(rng.Intn(600))*16
			tgt := 0x8000 + uint64(rng.Intn(256))*16
			if p, ok := b.Predict(pc); ok {
				sig = sig*31 + p
			}
			b.Update(pc, tgt)
			if p, ok := ind.Predict(pc); ok {
				sig = sig*31 + p
			}
			ind.Update(pc, tgt)
			if i%3 == 0 {
				ras.Push(tgt)
			} else {
				sig = sig*31 + ras.Pop(tgt)
			}
		}
		return sig
	}
	touch(10000)

	b2, ind2, ras2 := b.Clone(), ind.Clone(), ras.Clone()
	tail := rng.Int63()
	rng = rand.New(rand.NewSource(tail))
	want := touch(5000)

	b, ind, ras = b2, ind2, ras2
	rng = rand.New(rand.NewSource(tail))
	if got := touch(5000); got != want {
		t.Errorf("target predictors diverge after clone: %x, want %x", got, want)
	}
}
