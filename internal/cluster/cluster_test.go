package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates n points around each of the given centres with the
// given spread.
func blobs(rng *rand.Rand, centres [][]float64, n int, spread float64) ([][]float64, []int) {
	var pts [][]float64
	var truth []int
	for c, centre := range centres {
		for i := 0; i < n; i++ {
			p := make([]float64, len(centre))
			for j, v := range centre {
				p[j] = v + rng.NormFloat64()*spread
			}
			pts = append(pts, p)
			truth = append(truth, c)
		}
	}
	return pts, truth
}

// agrees reports whether a clustering matches ground truth up to label
// permutation (checked pairwise: same-cluster relations must coincide).
func agrees(assign, truth []int) bool {
	for i := range assign {
		for j := i + 1; j < len(assign); j++ {
			if (assign[i] == assign[j]) != (truth[i] == truth[j]) {
				return false
			}
		}
	}
	return true
}

func wellSeparated() ([][]float64, []int) {
	rng := rand.New(rand.NewSource(42))
	return blobs(rng, [][]float64{{0, 0}, {10, 0}, {0, 10}}, 12, 0.3)
}

func TestKMeansRecoversBlobs(t *testing.T) {
	pts, truth := wellSeparated()
	r, err := KMeans(rand.New(rand.NewSource(1)), pts, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !agrees(r.Assign, truth) {
		t.Fatalf("k-means failed to recover 3 well-separated blobs: %v", r.Assign)
	}
	sizes := r.Sizes()
	for c, s := range sizes {
		if s != 12 {
			t.Errorf("cluster %d has %d members, want 12", c, s)
		}
	}
}

func TestMedoidsAreMembers(t *testing.T) {
	pts, _ := wellSeparated()
	r, _ := KMeans(rand.New(rand.NewSource(3)), pts, 3, 100)
	meds := r.Medoids(pts)
	if len(meds) != 3 {
		t.Fatalf("medoids: %v", meds)
	}
	for c, m := range meds {
		if m < 0 || m >= len(pts) {
			t.Fatalf("medoid %d out of range", m)
		}
		if r.Assign[m] != c {
			t.Errorf("medoid %d of cluster %d is assigned to %d", m, c, r.Assign[m])
		}
		// No other member of the cluster is closer to the centroid.
		for i, a := range r.Assign {
			if a == c && sqDist(pts[i], r.Centroids[c]) < sqDist(pts[m], r.Centroids[c])-1e-12 {
				t.Errorf("cluster %d: member %d closer to centroid than medoid %d", c, i, m)
			}
		}
	}
}

func TestSilhouettePicksTrueK(t *testing.T) {
	pts, _ := wellSeparated()
	r, err := BestK(rand.New(rand.NewSource(4)), pts, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 3 {
		t.Errorf("BestK chose %d clusters, want 3", r.K)
	}
}

func TestSilhouetteOrdersGoodVsBad(t *testing.T) {
	pts, truth := wellSeparated()
	good := &Result{Assign: truth, K: 3}
	// Bad clustering: stripes across the blobs.
	badAssign := make([]int, len(pts))
	for i := range badAssign {
		badAssign[i] = i % 3
	}
	bad := &Result{Assign: badAssign, K: 3}
	if sg, sb := Silhouette(pts, good), Silhouette(pts, bad); sg <= sb {
		t.Errorf("silhouette good %.3f <= bad %.3f", sg, sb)
	}
}

func TestNormalize(t *testing.T) {
	pts := [][]float64{{1, 100, 5}, {2, 200, 5}, {3, 300, 5}}
	norm := Normalize(pts)
	for j := 0; j < 3; j++ {
		mean, varsum := 0.0, 0.0
		for i := range norm {
			mean += norm[i][j]
		}
		mean /= 3
		for i := range norm {
			d := norm[i][j] - mean
			varsum += d * d
		}
		if math.Abs(mean) > 1e-9 {
			t.Errorf("dim %d mean %g", j, mean)
		}
		if j < 2 && math.Abs(varsum/3-1) > 1e-9 {
			t.Errorf("dim %d variance %g", j, varsum/3)
		}
		if j == 2 && varsum != 0 {
			t.Errorf("constant dim normalised to nonzero variance")
		}
	}
	// Input untouched.
	if pts[0][0] != 1 || pts[2][1] != 300 {
		t.Error("Normalize mutated its input")
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := KMeans(rng, nil, 2, 10); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := KMeans(rng, [][]float64{{1}, {2}}, 3, 10); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KMeans(rng, [][]float64{{1}, {1, 2}}, 1, 10); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := KMeans(rng, [][]float64{{math.NaN()}}, 1, 10); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := KMeans(rng, [][]float64{{1}, {2}}, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
}

// Property: k-means always returns a valid partition — every point
// assigned, cluster ids in range, centroids finite, and total
// within-cluster distance no worse than assigning everything to one
// random centroid.
func TestKMeansPartitionProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64()}
		}
		k := int(kRaw%8) + 1
		r, err := KMeans(rng, pts, k, 50)
		if err != nil {
			return false
		}
		if len(r.Assign) != n || r.K != k || len(r.Centroids) != k {
			return false
		}
		for _, c := range r.Assign {
			if c < 0 || c >= k {
				return false
			}
		}
		for _, cent := range r.Centroids {
			for _, v := range cent {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: each point is assigned to its nearest centroid on return
// (Lloyd post-condition).
func TestKMeansNearestCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([][]float64, 30)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 4, rng.Float64() * 4}
		}
		r, err := KMeans(rng, pts, 4, 100)
		if err != nil {
			return false
		}
		for i, p := range pts {
			d := sqDist(p, r.Centroids[r.Assign[i]])
			for _, cent := range r.Centroids {
				if sqDist(p, cent) < d-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSortedAssignCanonical(t *testing.T) {
	r := &Result{Assign: []int{2, 2, 0, 1, 0}, K: 3}
	got := SortedAssign(r)
	want := []int{0, 0, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedAssign = %v, want %v", got, want)
		}
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	pts := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	r, err := KMeans(rand.New(rand.NewSource(7)), pts, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{3, 4} {
		if math.Abs(r.Centroids[0][j]-want) > 1e-9 {
			t.Errorf("centroid[%d] = %g, want %g", j, r.Centroids[0][j], want)
		}
	}
}
