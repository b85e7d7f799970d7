package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// plainNearest is the reference assignment step: the first centroid of
// strictly least squared distance.
func plainNearest(p []float64, centroids [][]float64) int {
	best, bd := 0, math.Inf(1)
	for c, cent := range centroids {
		if d := sqDist(p, cent); d < bd {
			best, bd = c, d
		}
	}
	return best
}

// gridPoints returns n seeded points on a small integer grid, so many
// points coincide and many distances tie exactly.
func gridPoints(rng *rand.Rand, n, dim, side int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			pts[i][j] = float64(rng.Intn(side))
		}
	}
	return pts
}

// checkEveryGuess compares nearest from every starting centroid with the
// plain scan.
func checkEveryGuess(t *testing.T, name string, points, centroids [][]float64) {
	t.Helper()
	for i, p := range points {
		want := plainNearest(p, centroids)
		for g := range centroids {
			if got := nearest(p, centroids, g); got != want {
				t.Fatalf("%s: point %d from guess %d: nearest %d, plain scan %d", name, i, g, got, want)
			}
		}
	}
}

// TestReassignMatchesPlainScan runs Lloyd iterations on seeded matrices
// with exact ties (duplicate points, duplicate centroids, k == n) and
// checks after every iteration that the pruned assignment is the plain
// scan's, from the previous assignment and from every other guess.
func TestReassignMatchesPlainScan(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dup := gridPoints(rng, 120, 3, 3)
	cases := []struct {
		name      string
		points    [][]float64
		centroids [][]float64
	}{
		{"duplicate points", dup, seedPlusPlus(rng, dup, 6)},
		{"duplicate centroids", dup, [][]float64{dup[0], dup[1], dup[0], dup[2], dup[1], dup[0]}},
		{"k == n", gridPoints(rng, 30, 2, 4), nil},
		{"k == n, distinct", pinPoints()[:40], nil},
		{"blobs", pinPoints(), seedPlusPlus(rng, pinPoints(), 22)},
	}
	for _, c := range cases {
		centroids := c.centroids
		if centroids == nil {
			centroids = seedPlusPlus(rng, c.points, len(c.points))
		}
		for i, cent := range centroids {
			centroids[i] = slices.Clone(cent)
		}
		assign := make([]int, len(c.points))
		for iter := 0; iter < 30; iter++ {
			checkEveryGuess(t, c.name, c.points, centroids)
			want := make([]int, len(c.points))
			for i, p := range c.points {
				want[i] = plainNearest(p, centroids)
			}
			changed := reassign(c.points, centroids, assign)
			if !slices.Equal(assign, want) {
				t.Fatalf("%s, iteration %d: assignment %v, plain scan %v", c.name, iter, assign, want)
			}
			if !changed && iter > 0 {
				break
			}
			recompute(centroids, c.points, assign, rng)
		}
	}
}

// TestNearestOverflowingDistances covers distances that overflow to +Inf
// and centroids that hold NaN: the plain scan never picks a NaN distance
// and falls back to centroid 0 when nothing is finite.
func TestNearestOverflowingDistances(t *testing.T) {
	big := 1e155
	points := [][]float64{{0, 0}, {big, big}, {-big, -big}, {big, -big}, {3, 4}}
	for _, centroids := range [][][]float64{
		{{-big, -big}, {big, big}, {0, 0}},
		{{big, big}, {big, big}, {-big, big}},
		{{math.NaN(), 0}, {1, 1}, {big, -big}},
		{{math.NaN(), 0}, {math.NaN(), 1}},
		{{math.Inf(1), 0}, {math.Inf(-1), 0}, {2, 2}},
	} {
		checkEveryGuess(t, "overflow", points, centroids)
	}
}
