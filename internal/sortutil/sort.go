// Package sortutil provides the sequential sorting, searching and merging
// kernels the distributed algorithms are built from: an introsort used for
// the Local Sort superstep, binary searches used to histogram locally sorted
// partitions, and the k-way merge algorithms of §V-C (binary merge tree and
// tournament / loser tree) used for the Local Merge superstep.
package sortutil

import "math/bits"

// insertionCutoff is the subarray size below which insertion sort wins.
const insertionCutoff = 16

// Sort sorts a in ascending order according to less.  It is an introsort:
// quicksort with median-of-three (ninther on large ranges) pivot selection,
// an insertion-sort cutoff, and a heapsort fallback at depth 2·log2(n) that
// bounds the worst case to O(n log n).  The sort is not stable.
func Sort[T any](a []T, less func(a, b T) bool) {
	if len(a) < 2 {
		return
	}
	limit := 2 * bits.Len(uint(len(a)))
	introsort(a, less, limit)
}

func introsort[T any](a []T, less func(a, b T) bool, depth int) {
	for len(a) > insertionCutoff {
		if depth == 0 {
			heapSort(a, less)
			return
		}
		depth--
		p := partition(a, less)
		// Recurse on the smaller side, loop on the larger: O(log n) stack.
		if p < len(a)-p-1 {
			introsort(a[:p], less, depth)
			a = a[p+1:]
		} else {
			introsort(a[p+1:], less, depth)
			a = a[:p]
		}
	}
	insertionSort(a, less)
}

// medianOfThree orders a[i], a[j], a[k] so that a[j] holds the median.
func medianOfThree[T any](a []T, less func(a, b T) bool, i, j, k int) {
	if less(a[j], a[i]) {
		a[i], a[j] = a[j], a[i]
	}
	if less(a[k], a[j]) {
		a[j], a[k] = a[k], a[j]
		if less(a[j], a[i]) {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// partition picks a pivot, partitions a around it and returns the pivot's
// final index (Hoare-style with the pivot parked at a[0]).
func partition[T any](a []T, less func(a, b T) bool) int {
	n := len(a)
	m := n / 2
	if n > 128 {
		// Ninther: median of three medians-of-three.
		s := n / 8
		medianOfThree(a, less, 0, s, 2*s)
		medianOfThree(a, less, m-s, m, m+s)
		medianOfThree(a, less, n-1-2*s, n-1-s, n-1)
		medianOfThree(a, less, s, m, n-1-s)
	} else {
		medianOfThree(a, less, 0, m, n-1)
	}
	// The median is at a[m]; park it at a[0].
	a[0], a[m] = a[m], a[0]
	pivot := a[0]
	i, j := 1, n-1
	for {
		for i <= j && less(a[i], pivot) {
			i++
		}
		for i <= j && less(pivot, a[j]) {
			j--
		}
		if i > j {
			break
		}
		a[i], a[j] = a[j], a[i]
		i++
		j--
	}
	a[0], a[j] = a[j], a[0]
	return j
}

func insertionSort[T any](a []T, less func(a, b T) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func heapSort[T any](a []T, less func(a, b T) bool) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, less, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftDown(a, less, 0, i)
	}
}

func siftDown[T any](a []T, less func(a, b T) bool, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && less(a[child], a[child+1]) {
			child++
		}
		if !less(a[root], a[child]) {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// IsSorted reports whether a is in ascending order according to less.
func IsSorted[T any](a []T, less func(a, b T) bool) bool {
	for i := 1; i < len(a); i++ {
		if less(a[i], a[i-1]) {
			return false
		}
	}
	return true
}

// MergeInto merges sorted left and right into dst (len(dst) ==
// len(left)+len(right)), stably: ties are taken from left.  right may alias
// the tail of dst.  This is the single two-way merge kernel shared by
// Merge and the psort fork-join merges.
func MergeInto[T any](dst, left, right []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(left) && j < len(right) {
		if less(right[j], left[i]) {
			dst[k] = right[j]
			j++
		} else {
			dst[k] = left[i]
			i++
		}
		k++
	}
	for i < len(left) {
		dst[k] = left[i]
		i++
		k++
	}
	// Any remaining right elements are already in place when right
	// aliases dst's tail; copy handles the general case.
	if j < len(right) {
		copy(dst[k:], right[j:])
	}
}
