package sortutil

import (
	"sort"
	"testing"
	"testing/quick"

	"dhsort/internal/prng"
)

func TestRadixSortUint64(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 1000, 100000} {
		for _, span := range []uint64{0, 1, 256, 1 << 20} {
			a := randomSlice(uint64(n)+span, n, span)
			want := append([]uint64(nil), a...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			RadixSortUint64(a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d span=%d: mismatch at %d", n, span, i)
				}
			}
		}
	}
}

func TestRadixSortFuncStable(t *testing.T) {
	src := prng.NewSplitMix64(9)
	a := make([]pair, 20000)
	for i := range a {
		a[i] = pair{k: int(prng.Uint64n(src, 64)), tag: i}
	}
	RadixSortFuncScratch(a, func(p pair) uint64 { return uint64(p.k) }, 1, nil)
	for i := 1; i < len(a); i++ {
		if a[i-1].k > a[i].k || (a[i-1].k == a[i].k && a[i-1].tag > a[i].tag) {
			t.Fatal("radix sort must be stable")
		}
	}
}

func TestRadixSortFuncWidthClamp(t *testing.T) {
	a := []uint64{3, 1, 2}
	RadixSortFuncScratch(a, func(v uint64) uint64 { return v }, 0, nil) // clamps to 1
	if !IsSorted(a, lessU64) {
		t.Fatal("width clamp broke sorting")
	}
	b := []uint64{1 << 60, 1, 1 << 40}
	RadixSortFuncScratch(b, func(v uint64) uint64 { return v }, 99, nil) // clamps to 8
	if !IsSorted(b, lessU64) {
		t.Fatal("width clamp broke sorting")
	}
}

func TestRadixMatchesIntrosortQuick(t *testing.T) {
	f := func(a []uint64) bool {
		b := append([]uint64(nil), a...)
		Sort(b, lessU64)
		RadixSortUint64(a)
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

func TestRadixAllEqual(t *testing.T) {
	a := make([]uint64, 1000)
	for i := range a {
		a[i] = 42
	}
	RadixSortUint64(a)
	for _, v := range a {
		if v != 42 {
			t.Fatal("constant input corrupted")
		}
	}
}
