package sortutil

import (
	"sort"
	"testing"
	"testing/quick"

	"dhsort/internal/prng"
)

func lessU64(a, b uint64) bool { return a < b }
func lessInt(a, b int) bool    { return a < b }

func randomSlice(seed uint64, n int, dup uint64) []uint64 {
	src := prng.NewXoshiro256(seed)
	a := make([]uint64, n)
	for i := range a {
		if dup > 0 {
			a[i] = prng.Uint64n(src, dup)
		} else {
			a[i] = src.Uint64()
		}
	}
	return a
}

func TestSortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 100, 1000, 10000} {
		for _, dup := range []uint64{0, 1, 2, 10} {
			a := randomSlice(uint64(n)+dup, n, dup)
			want := append([]uint64(nil), a...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			Sort(a, lessU64)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d dup=%d: mismatch at %d", n, dup, i)
				}
			}
		}
	}
}

func TestSortAdversarialPatterns(t *testing.T) {
	patterns := map[string]func(n int) []int{
		"sorted": func(n int) []int {
			a := make([]int, n)
			for i := range a {
				a[i] = i
			}
			return a
		},
		"reversed": func(n int) []int {
			a := make([]int, n)
			for i := range a {
				a[i] = n - i
			}
			return a
		},
		"allequal": func(n int) []int { return make([]int, n) },
		"sawtooth": func(n int) []int {
			a := make([]int, n)
			for i := range a {
				a[i] = i % 7
			}
			return a
		},
		"organpipe": func(n int) []int {
			a := make([]int, n)
			for i := range a {
				if i < n/2 {
					a[i] = i
				} else {
					a[i] = n - i
				}
			}
			return a
		},
	}
	for name, gen := range patterns {
		for _, n := range []int{10, 100, 4096} {
			a := gen(n)
			Sort(a, lessInt)
			if !IsSorted(a, lessInt) {
				t.Errorf("%s n=%d: not sorted", name, n)
			}
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(a []int) bool {
		b := append([]int(nil), a...)
		Sort(a, lessInt)
		if !IsSorted(a, lessInt) {
			return false
		}
		// Permutation check via counting.
		sort.Ints(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pair carries a tag alongside its key, for stability checks.
type pair struct{ k, tag int }

func TestIsSorted(t *testing.T) {
	if !IsSorted([]int{}, lessInt) || !IsSorted([]int{1}, lessInt) || !IsSorted([]int{1, 1, 2}, lessInt) {
		t.Error("sorted slices misreported")
	}
	if IsSorted([]int{2, 1}, lessInt) {
		t.Error("unsorted slice misreported")
	}
}

func TestLowerUpperBound(t *testing.T) {
	a := []int{1, 3, 3, 3, 7, 9}
	cases := []struct{ x, lo, hi int }{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {4, 4, 4}, {7, 4, 5}, {9, 5, 6}, {10, 6, 6},
	}
	for _, c := range cases {
		if got := LowerBound(a, c.x, lessInt); got != c.lo {
			t.Errorf("LowerBound(%d) = %d, want %d", c.x, got, c.lo)
		}
		if got := UpperBound(a, c.x, lessInt); got != c.hi {
			t.Errorf("UpperBound(%d) = %d, want %d", c.x, got, c.hi)
		}
	}
}

func TestBoundsQuick(t *testing.T) {
	f := func(a []uint8, x uint8) bool {
		b := make([]int, len(a))
		for i, v := range a {
			b[i] = int(v)
		}
		sort.Ints(b)
		lo := LowerBound(b, int(x), lessInt)
		hi := UpperBound(b, int(x), lessInt)
		// All elements before lo are < x, all in [lo,hi) are == x,
		// all from hi on are > x.
		for i, v := range b {
			switch {
			case i < lo && v >= int(x):
				return false
			case i >= lo && i < hi && v != int(x):
				return false
			case i >= hi && v <= int(x):
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
