package sortutil

// LSD radix sorts — the "fast shared memory algorithm" alternative for the
// Local Sort superstep when keys are fixed-width integers.  8-bit digits,
// one counting pass per non-constant digit, stable.
//
// The key function is evaluated exactly once per element: images are cached
// in a uint64 side array that moves with the elements through the scatter
// passes, so even expensive order-preserving embeddings (e.g. the IEEE-754
// total-order transform) are paid O(n), not O(n·width).

// RadixSortUint64 sorts a in ascending order in O(8·n) time and n extra
// space.
func RadixSortUint64(a []uint64) {
	RadixSortFuncScratch(a, func(v uint64) uint64 { return v }, 8, nil)
}

// RadixSortFuncScratch stably sorts a by the uint64 image of key, which must
// be order-preserving for the intended ordering; width is the number of
// significant key bytes (1-8; use 8 when unsure).  Element and key-cache
// scratch come from ar (nil means allocate).  It returns the number of
// scatter passes actually executed — constant digits are skipped — which
// the virtual-clock cost model uses to price the sort honestly.
func RadixSortFuncScratch[T any](a []T, key func(T) uint64, width int, ar *Arena[T]) int {
	if width < 1 {
		width = 1
	}
	if width > 8 {
		width = 8
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	return radixSortKeyed(a, key, width, ar.Vals(n), ar.Keys(2*n))
}

// radixSortKeyed runs the LSD passes over a with cached key images.  buf
// must have length n; keyScratch length 2n (ping-pong halves).
func radixSortKeyed[T any](a []T, key func(T) uint64, width int, buf []T, keyScratch []uint64) int {
	n := len(a)
	ks, kbuf := keyScratch[:n], keyScratch[n:2*n]
	for i, v := range a {
		ks[i] = key(v)
	}
	src, dst := a, buf
	ksrc, kdst := ks, kbuf
	passes := 0
	for d := 0; d < width; d++ {
		shift := uint(8 * d)
		var counts [256]int
		for _, k := range ksrc {
			counts[(k>>shift)&0xff]++
		}
		// Skip digits on which all keys agree.
		if counts[(ksrc[0]>>shift)&0xff] == n {
			continue
		}
		pos := 0
		for i := range counts {
			counts[i], pos = pos, pos+counts[i]
		}
		for i, k := range ksrc {
			b := (k >> shift) & 0xff
			dst[counts[b]] = src[i]
			kdst[counts[b]] = k
			counts[b]++
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
		passes++
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	return passes
}
