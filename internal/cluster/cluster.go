// Package cluster provides the cluster analysis used by the class-based
// workload selection methods the paper surveys in Section II-B:
// Vandierendonck & Seznec derive benchmark classes by clustering ([6]),
// and Van Biesbrouck, Eeckhout & Calder cluster workloads directly and
// simulate one representative per cluster ([7]).
//
// The package implements k-means with k-means++ seeding, z-score
// normalisation, silhouette scoring for choosing k, and medoid
// extraction. Everything is deterministic given the caller's
// *rand.Rand.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Result is a clustering of n points into k clusters.
type Result struct {
	// Assign maps each point to its cluster in [0, K).
	Assign []int
	// Centroids holds the cluster centres (k-means) or cluster means
	// (hierarchical), one per cluster.
	Centroids [][]float64
	// K is the number of clusters.
	K int
}

// Sizes returns the number of points per cluster.
func (r *Result) Sizes() []int {
	sizes := make([]int, r.K)
	for _, c := range r.Assign {
		sizes[c]++
	}
	return sizes
}

// Members returns the point indices of each cluster, in ascending order.
func (r *Result) Members() [][]int {
	m := make([][]int, r.K)
	for i, c := range r.Assign {
		m[c] = append(m[c], i)
	}
	return m
}

// Medoids returns, for each cluster, the member point closest to the
// centroid — the natural "representative" of the cluster.
func (r *Result) Medoids(points [][]float64) []int {
	med := make([]int, r.K)
	best := make([]float64, r.K)
	for c := range med {
		med[c] = -1
	}
	for i, c := range r.Assign {
		d := sqDist(points[i], r.Centroids[c])
		if med[c] < 0 || d < best[c] {
			med[c], best[c] = i, d
		}
	}
	return med
}

// validate checks a point matrix for shape problems.
func validate(points [][]float64, k int) error {
	if len(points) == 0 {
		return fmt.Errorf("cluster: no points")
	}
	if k < 1 || k > len(points) {
		return fmt.Errorf("cluster: k=%d with %d points", k, len(points))
	}
	dim := len(points[0])
	if dim == 0 {
		return fmt.Errorf("cluster: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("cluster: point %d contains NaN/Inf", i)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// k-means

// KMeans clusters points into k clusters with k-means++ seeding and Lloyd
// iterations until convergence (or maxIter). rng drives seeding only; the
// iterations themselves are deterministic.
func KMeans(rng *rand.Rand, points [][]float64, k, maxIter int) (*Result, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	centroids := seedPlusPlus(rng, points, k)
	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		if !reassign(points, centroids, assign) && iter > 0 {
			break
		}
		recompute(centroids, points, assign, rng)
	}
	return &Result{Assign: assign, Centroids: centroids, K: k}, nil
}

// reassign moves every point to its nearest centroid, starting the
// search from the point's current one, and reports whether any moved.
func reassign(points, centroids [][]float64, assign []int) bool {
	changed := false
	for i, p := range points {
		if best := nearest(p, centroids, assign[i]); best != assign[i] {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// nearest returns the centroid that a plain scan keeping the first
// strict minimum of sqDist picks: the least (distance, index) pair among
// the centroids at a finite distance, or 0 if there are none. It takes
// the guess first, usually the point's previous centroid, and abandons a
// candidate as soon as its running sum cannot win any more: a sum of
// squares never decreases term by term, so a partial sum past the best
// distance, or equal to it at a higher index, stays a loss. A candidate
// that finishes has summed the same terms in the same order as sqDist.
func nearest(p []float64, centroids [][]float64, guess int) int {
	best, bd := 0, math.Inf(1)
	if d := sqDist(p, centroids[guess]); d < bd {
		best, bd = guess, d
	}
candidates:
	for c, cent := range centroids {
		if c == guess {
			continue
		}
		s := 0.0
		for j, x := range p {
			d := x - cent[j]
			s += d * d
			if !(s < bd || s == bd && c < best) {
				continue candidates
			}
		}
		best, bd = c, s
	}
	return best
}

// seedPlusPlus picks k initial centroids: the first uniformly, each next
// with probability proportional to the squared distance from the nearest
// chosen centroid (k-means++). d2 keeps each point's running minimum, so
// a round compares points against the newest centroid only: O(n·k) in
// all, and bit-identical to rescanning every centroid each round (a
// minimum is exact, and total sums the same values in the same order).
func seedPlusPlus(rng *rand.Rand, points [][]float64, k int) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		total := 0.0
		for i, p := range points {
			if d := sqDist(p, newest); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		var next int
		if total == 0 {
			next = rng.Intn(len(points)) // all points coincide with centroids
		} else {
			r := rng.Float64() * total
			acc := 0.0
			next = len(points) - 1
			for i, d := range d2 {
				acc += d
				if r < acc {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[next]...))
	}
	return centroids
}

// recompute moves each centroid to the mean of its members; an emptied
// cluster is re-seeded on the point farthest from its nearest centroid.
func recompute(centroids [][]float64, points [][]float64, assign []int, rng *rand.Rand) {
	dim := len(points[0])
	counts := make([]int, len(centroids))
	for c := range centroids {
		for j := 0; j < dim; j++ {
			centroids[c][j] = 0
		}
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			centroids[c][j] += v
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			// Re-seed deterministically on the worst-covered point.
			worst, wd := 0, -1.0
			for i, p := range points {
				d := math.Inf(1)
				for c2 := range centroids {
					if counts[c2] == 0 {
						continue
					}
					if dd := sqDist(p, centroids[c2]); dd < d {
						d = dd
					}
				}
				if d > wd {
					worst, wd = i, d
				}
			}
			copy(centroids[c], points[worst])
			continue
		}
		for j := 0; j < dim; j++ {
			centroids[c][j] /= float64(counts[c])
		}
	}
	_ = rng
}

// ---------------------------------------------------------------------------
// Normalisation, silhouette, model selection

// Normalize z-scores each feature dimension in place-free fashion: the
// returned matrix has zero mean and unit variance per dimension (constant
// dimensions become all-zero).
func Normalize(points [][]float64) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0])
	mean := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(points))
	}
	std := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(points)))
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		out[i] = make([]float64, dim)
		for j, v := range p {
			if std[j] > 0 {
				out[i][j] = (v - mean[j]) / std[j]
			}
		}
	}
	return out
}

// Silhouette returns the mean silhouette coefficient of a clustering in
// [-1, 1]; higher is better. Singleton clusters contribute 0, as is
// conventional.
func Silhouette(points [][]float64, r *Result) float64 {
	n := len(points)
	if n == 0 || r.K < 2 {
		return 0
	}
	members := r.Members()
	total := 0.0
	for i, p := range points {
		own := members[r.Assign[i]]
		if len(own) <= 1 {
			continue
		}
		a := 0.0
		for _, j := range own {
			if j != i {
				a += math.Sqrt(sqDist(p, points[j]))
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for c, mem := range members {
			if c == r.Assign[i] || len(mem) == 0 {
				continue
			}
			d := 0.0
			for _, j := range mem {
				d += math.Sqrt(sqDist(p, points[j]))
			}
			d /= float64(len(mem))
			if d < b {
				b = d
			}
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
	}
	return total / float64(n)
}

// BestK runs k-means for each k in [kMin, kMax] and returns the result
// with the highest silhouette score, along with the chosen k.
func BestK(rng *rand.Rand, points [][]float64, kMin, kMax int) (*Result, error) {
	if kMin < 2 {
		kMin = 2
	}
	if kMax >= len(points) {
		kMax = len(points) - 1
	}
	if kMax < kMin {
		return nil, fmt.Errorf("cluster: empty k range [%d,%d] for %d points", kMin, kMax, len(points))
	}
	var best *Result
	bestScore := math.Inf(-1)
	for k := kMin; k <= kMax; k++ {
		r, err := KMeans(rng, points, k, 100)
		if err != nil {
			return nil, err
		}
		if s := Silhouette(points, r); s > bestScore {
			best, bestScore = r, s
		}
	}
	return best, nil
}

// ---------------------------------------------------------------------------

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SortedAssign relabels clusters canonically (by their smallest member
// index) so results can be compared across runs regardless of arbitrary
// cluster numbering.
func SortedAssign(r *Result) []int {
	firstSeen := make([]int, r.K)
	for c := range firstSeen {
		firstSeen[c] = math.MaxInt32
	}
	for i, c := range r.Assign {
		if i < firstSeen[c] {
			firstSeen[c] = i
		}
	}
	order := make([]int, r.K)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return firstSeen[order[a]] < firstSeen[order[b]] })
	relabel := make([]int, r.K)
	for newID, oldID := range order {
		relabel[oldID] = newID
	}
	out := make([]int, len(r.Assign))
	for i, c := range r.Assign {
		out[i] = relabel[c]
	}
	return out
}
