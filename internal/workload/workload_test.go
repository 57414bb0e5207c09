package workload

import (
	"math"
	"testing"
)

func TestRankDeterministic(t *testing.T) {
	for _, d := range Distributions {
		spec := Spec{Dist: d, Seed: 42, Span: 1e9}
		a, err := spec.Rank(3, 1000)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		b, _ := spec.Rank(3, 1000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: not deterministic at %d", d, i)
			}
		}
	}
}

func TestRankStreamsIndependent(t *testing.T) {
	spec := Spec{Dist: Uniform, Seed: 1, Span: 1e9}
	a, _ := spec.Rank(0, 1000)
	b, _ := spec.Rank(1, 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("rank streams overlap: %d identical positions", same)
	}
}

func TestUniformInRange(t *testing.T) {
	spec := Spec{Dist: Uniform, Seed: 7, Span: 1e9}
	keys, _ := spec.Rank(0, 100000)
	var min, max uint64 = math.MaxUint64, 0
	for _, k := range keys {
		if k > 1e9 {
			t.Fatalf("key %d out of span", k)
		}
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	// The sample should span most of the interval.
	if min > 1e7 || max < 9e8 {
		t.Errorf("uniform sample looks wrong: min=%d max=%d", min, max)
	}
}

func TestNormalShape(t *testing.T) {
	spec := Spec{Dist: Normal, Seed: 7, Span: 1e9}
	keys, _ := spec.Rank(0, 100000)
	var sum float64
	inner := 0
	for _, k := range keys {
		if k > 1e9 {
			t.Fatalf("key %d out of span", k)
		}
		sum += float64(k)
		if k > 375e6 && k < 625e6 { // within ±1 sigma of the mean
			inner++
		}
	}
	mean := sum / float64(len(keys))
	if mean < 4.5e8 || mean > 5.5e8 {
		t.Errorf("normal mean = %v", mean)
	}
	frac := float64(inner) / float64(len(keys))
	if frac < 0.6 || frac > 0.75 { // ~68% expected
		t.Errorf("±1σ mass = %v, want ≈0.68", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	spec := Spec{Dist: Zipf, Seed: 9, Span: 1e9}
	keys, _ := spec.Rank(0, 100000)
	small := 0
	for _, k := range keys {
		if k > 1e9 {
			t.Fatalf("key %d out of span", k)
		}
		if k < 1000 {
			small++
		}
	}
	// A Zipf-ish law concentrates mass at small values.
	if float64(small)/float64(len(keys)) < 0.5 {
		t.Errorf("zipf not skewed: only %d/%d small keys", small, len(keys))
	}
}

func TestNearlySortedMostlyAscending(t *testing.T) {
	spec := Spec{Dist: NearlySorted, Seed: 5, Span: 1e9}
	keys, _ := spec.Rank(0, 10000)
	inversions := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			inversions++
		}
	}
	if frac := float64(inversions) / float64(len(keys)); frac > 0.05 {
		t.Errorf("nearly-sorted has %v inversion rate", frac)
	}
}

func TestDuplicateHeavyCardinality(t *testing.T) {
	spec := Spec{Dist: DuplicateHeavy, Seed: 3, Span: 1e9}
	keys, _ := spec.Rank(0, 10000)
	distinct := map[uint64]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	if len(distinct) > 16 {
		t.Errorf("expected at most 16 distinct keys, got %d", len(distinct))
	}
}

func TestAllEqual(t *testing.T) {
	spec := Spec{Dist: AllEqual, Seed: 3, Span: 1e9}
	keys, _ := spec.Rank(2, 100)
	for _, k := range keys {
		if k != keys[0] {
			t.Fatal("all-equal must emit one value")
		}
	}
}

func TestSparseRanks(t *testing.T) {
	spec := Spec{Dist: Uniform, Seed: 3, Span: 1e9, Sparse: 3}
	for r := 0; r < 9; r++ {
		keys, _ := spec.Rank(r, 50)
		if r%3 == 2 && len(keys) != 0 {
			t.Errorf("rank %d should be empty", r)
		}
		if r%3 != 2 && len(keys) != 50 {
			t.Errorf("rank %d should have 50 keys", r)
		}
	}
}

func TestShiftedTargetsSuccessor(t *testing.T) {
	spec := Spec{Dist: Shifted, Seed: 3, Span: 1e9, Ranks: 4}
	for r := 0; r < 4; r++ {
		keys, err := spec.Rank(r, 1000)
		if err != nil {
			t.Fatal(err)
		}
		width := uint64(1e9)/4 + 1
		lo := uint64((r+1)%4) * width
		for _, k := range keys {
			if k < lo || k > lo+width {
				t.Fatalf("rank %d key %d outside successor bucket [%d,%d]", r, k, lo, lo+width)
			}
		}
	}
}

func TestShiftedWithoutRanksFallsBack(t *testing.T) {
	keys, err := (Spec{Dist: Shifted, Seed: 3, Span: 1e9}).Rank(0, 100)
	if err != nil || len(keys) != 100 {
		t.Fatalf("fallback failed: %v", err)
	}
}

func TestReverseSortedDescending(t *testing.T) {
	spec := Spec{Dist: ReverseSorted, Seed: 1, Span: 1e9}
	keys, _ := spec.Rank(0, 1000)
	for i := 1; i < len(keys); i++ {
		if keys[i] > keys[i-1] {
			t.Fatalf("not descending at %d", i)
		}
	}
	k0, _ := spec.Rank(0, 10)
	k1, _ := spec.Rank(1, 10)
	if k1[0] > k0[len(k0)-1] {
		t.Fatal("rank-major descent violated across ranks")
	}
}

// Golden histogram for the duplicate-flood adversary: the exact per-bucket
// counts for a pinned seed.  Any change to the generator (or the prng
// stream it consumes) shows up here before it silently reshapes the chaos
// corpus and the skew experiment.
func TestDuplicateFloodGolden(t *testing.T) {
	const n, span = 100000, uint64(1e9)
	spec := Spec{Dist: DuplicateFlood, Seed: 42, Span: span, FloodFrac: 0.5}
	keys, err := spec.Rank(0, n)
	if err != nil {
		t.Fatal(err)
	}
	var hist [8]int
	flood := 0
	width := span/8 + 1
	for _, k := range keys {
		if k > span {
			t.Fatalf("key %d out of span", k)
		}
		if k == FloodValue(span) {
			flood++
		}
		hist[k/width]++
	}
	// The flood mass must track FloodFrac (binomial, n=1e5, p=0.5).
	if flood < 49000 || flood > 51000 {
		t.Errorf("flood mass %d, want ≈50000", flood)
	}
	golden := [8]int{6295, 6197, 56312, 6187, 6279, 6209, 6280, 6241}
	if hist != golden {
		t.Errorf("histogram drifted:\n got %v\nwant %v", hist, golden)
	}
}

// Golden outlier counts for the sorted-with-outliers adversary: displaced
// positions (ramp value replaced by an extreme-tail outlier) and their
// split across the bottom/top bands, pinned for a fixed seed.
func TestSortedOutliersGolden(t *testing.T) {
	const n = 100000
	const span = uint64(1e9)
	spec := Spec{Dist: SortedOutliers, Seed: 42, Span: span}
	keys, err := spec.Rank(0, n)
	if err != nil {
		t.Fatal(err)
	}
	tail := span / 1024
	displaced, low, high := 0, 0, 0
	for i, k := range keys {
		if k > span {
			t.Fatalf("key %d out of span", k)
		}
		want := uint64(i) // rank 0: the ramp is the global index
		if want > span-tail-1 {
			want = span - tail - 1
		}
		if k == want {
			continue
		}
		displaced++
		switch {
		case k <= tail:
			low++
		case k >= span-tail:
			high++
		default:
			t.Fatalf("displaced key %d at %d is outside both outlier bands", k, i)
		}
	}
	// Tail mass must track the default OutlierFrac of 5%, split evenly.
	if displaced < 4500 || displaced > 5500 {
		t.Errorf("displaced %d, want ≈5000", displaced)
	}
	if displaced != 5056 || low != 2563 || high != 2493 {
		t.Errorf("outlier counts drifted: displaced=%d low=%d high=%d, want 5056/2563/2493",
			displaced, low, high)
	}
}

func TestUnknownDistribution(t *testing.T) {
	if _, err := (Spec{Dist: "bogus"}).Rank(0, 10); err == nil {
		t.Fatal("expected error")
	}
}

func TestNegativeSize(t *testing.T) {
	if _, err := (Spec{Dist: Uniform}).Rank(0, -1); err == nil {
		t.Fatal("expected error")
	}
}

func TestEmptyDistributionDefaultsToUniform(t *testing.T) {
	keys, err := (Spec{Seed: 1, Span: 100}).Rank(0, 10)
	if err != nil || len(keys) != 10 {
		t.Fatalf("default distribution failed: %v", err)
	}
}

func TestFullSpan(t *testing.T) {
	keys, err := (Spec{Dist: Uniform, Seed: 1}).Rank(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for _, k := range keys {
		if k > math.MaxUint64/2 {
			big++
		}
	}
	if big < 400 || big > 600 {
		t.Errorf("full-span draw skewed: %d/1000 in upper half", big)
	}
}

func TestLocalSize(t *testing.T) {
	total := 0
	for r := 0; r < 7; r++ {
		total += LocalSize(100, 7, r)
	}
	if total != 100 {
		t.Fatalf("local sizes sum to %d", total)
	}
	if LocalSize(100, 7, 0) != 15 || LocalSize(100, 7, 6) != 14 {
		t.Fatal("front-loading wrong")
	}
}
