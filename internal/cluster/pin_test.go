package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// pinPoints is a seeded 300x4 matrix: five loose blobs plus uniform
// background, so large k splits both dense and sparse regions.
func pinPoints() [][]float64 {
	rng := rand.New(rand.NewSource(2013))
	pts, _ := blobs(rng, [][]float64{{0, 0, 0, 0}, {6, 1, 0, 2}, {1, 7, 3, 0}, {4, 4, 8, 1}, {9, 9, 1, 9}}, 40, 1.2)
	for i := 0; i < 100; i++ {
		pts = append(pts, []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10})
	}
	return pts
}

// digest hashes the exact bits of a clustering: every assignment and
// every centroid coordinate.
func digest(r *Result) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range r.Assign {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		h.Write(b[:])
	}
	for _, c := range r.Centroids {
		for _, v := range c {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestKMeansBitsPinned pins the exact centroid bits and assignments of
// seeded k-means runs up to k = 50. The experiments goldens round to
// three decimals, so a last-bit drift in the seeding or the Lloyd
// iterations would pass them; it cannot pass this.
func TestKMeansBitsPinned(t *testing.T) {
	pts := pinPoints()
	for _, c := range []struct {
		k          int
		seed, want string // digests of the k-means++ seeds and of the result
	}{
		{1, "81bb6908bfec25a0", "ae2c4c81632847bb"},
		{2, "1e0be6a72dc5a251", "88a2056ae6f48e24"},
		{7, "c3b5ef5dee0df2d3", "2c55f31f9d1b4fd1"},
		{22, "2ee5ec74d129ff0f", "47296dac6768346a"},
		{50, "6e5e9d63361b43d0", "b6428d5ea32e3628"},
	} {
		seeds := seedPlusPlus(rand.New(rand.NewSource(int64(c.k))), pts, c.k)
		if got := digest(&Result{Centroids: seeds}); got != c.seed {
			t.Errorf("k=%d: seeding digest %s, want %s", c.k, got, c.seed)
		}
		r, err := KMeans(rand.New(rand.NewSource(int64(c.k))), pts, c.k, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(r); got != c.want {
			t.Errorf("k=%d: digest %s, want %s", c.k, got, c.want)
		}
	}
}
