// Package workload generates the benchmark inputs of the paper's
// evaluation: uniformly distributed 64-bit unsigned integers in [0, 1e9]
// (§VI-B), normally distributed doubles (§VI-D), plus the adversarial
// distributions the paper claims robustness against — skewed, nearly
// sorted, duplicate-heavy and sparse partitionings (§V-A, §VII).
//
// Generation is deterministic: rank r of a run seeded with s draws from an
// independent stream derived from (s, r), so any experiment reproduces
// bit-identically at any process count.
package workload

import (
	"fmt"
	"math"

	"dhsort/internal/prng"
)

// Distribution names a key distribution.
type Distribution string

// The distributions used across the experiments.
const (
	// Uniform draws uint64 keys uniformly from [0, Span] (the paper's
	// strong/weak-scaling workload with Span = 1e9).
	Uniform Distribution = "uniform"
	// Normal draws keys from a normal distribution scaled into the uint64
	// range (mean Span/2, sigma Span/8, clamped) — the distribution on
	// which the Charm++ implementation failed to terminate (§VI-B).
	Normal Distribution = "normal"
	// Zipf draws heavily skewed keys (many small values, a long tail).
	Zipf Distribution = "zipf"
	// NearlySorted emits an almost-ascending global sequence with 1% of
	// keys displaced — "nearly sorted data distributions ... not uncommon
	// in real world problems" (§II).
	NearlySorted Distribution = "nearly-sorted"
	// DuplicateHeavy draws from only 16 distinct values, stressing the
	// unique-key transformation of §V-A.
	DuplicateHeavy Distribution = "duplicate-heavy"
	// AllEqual emits a single repeated key, the extreme duplicate case.
	AllEqual Distribution = "all-equal"
	// Shifted concentrates rank r's keys in the value range owned by rank
	// (r+1) mod P after sorting — the exchange worst case: every element
	// must cross the network.
	Shifted Distribution = "shifted"
	// ReverseSorted emits a globally descending sequence (rank-major),
	// the adversarial input for adaptive algorithms.
	ReverseSorted Distribution = "reverse-sorted"
	// DuplicateFlood is the PGX.D heavy-hitter adversary: a FloodFrac
	// fraction of all keys is one single repeated value (the flood), the
	// rest uniform.  Value-based splitters land the whole flood on one
	// rank; tie-broken splitters split it across ranks.
	DuplicateFlood Distribution = "duplicate-flood"
	// SortedOutliers emits an almost-perfectly ascending global ramp with
	// an OutlierFrac fraction of keys replaced by extreme-tail outliers
	// (half at the bottom, half at the top of the key range) — the
	// sorted-with-outliers adversary for sampled splitter guesses.
	SortedOutliers Distribution = "sorted-with-outliers"
)

// Distributions lists every supported distribution.
var Distributions = []Distribution{Uniform, Normal, Zipf, NearlySorted, DuplicateHeavy, AllEqual, Shifted, ReverseSorted, DuplicateFlood, SortedOutliers}

// Spec describes one rank's share of a generated workload.
type Spec struct {
	// Dist is the key distribution.
	Dist Distribution
	// Seed is the run seed; each rank derives an independent stream.
	Seed uint64
	// Span bounds the key range for Uniform/Normal/NearlySorted
	// (0 means the full uint64 range).  The paper uses 1e9.
	Span uint64
	// Sparse, if positive, empties every Sparse-th rank (sparse input
	// partitions, §VII: "a fraction of all processors do not contribute
	// local elements").
	Sparse int
	// Ranks is the total rank count, needed by the Shifted distribution
	// to aim each rank's keys at its successor's range (0 disables the
	// shift and falls back to Uniform).
	Ranks int
	// FloodFrac is the DuplicateFlood heavy-hitter mass: the probability
	// that a key is the single flooded value (0 means 0.5).  Ignored by
	// the other distributions.
	FloodFrac float64
	// OutlierFrac is the SortedOutliers tail mass: the probability that a
	// position of the ascending ramp is replaced by an extreme-tail
	// outlier (0 means 0.05).  Ignored by the other distributions.
	OutlierFrac float64
}

// floodFrac returns the effective DuplicateFlood heavy-hitter mass.
func (s Spec) floodFrac() float64 {
	if s.FloodFrac <= 0 {
		return 0.5
	}
	if s.FloodFrac > 1 {
		return 1
	}
	return s.FloodFrac
}

// outlierFrac returns the effective SortedOutliers tail mass.
func (s Spec) outlierFrac() float64 {
	if s.OutlierFrac <= 0 {
		return 0.05
	}
	if s.OutlierFrac > 1 {
		return 1
	}
	return s.OutlierFrac
}

// FloodValue returns the key value DuplicateFlood floods for the given span
// (exported so oracles can count the flood run in generated data).
func FloodValue(span uint64) uint64 {
	if span == 0 {
		span = math.MaxUint64
	}
	return span / 3
}

// Rank generates rank r's n keys under the spec.  The same (spec, r, n)
// always yields the same keys.
func (s Spec) Rank(r, n int) ([]uint64, error) {
	if n < 0 {
		return nil, fmt.Errorf("workload: negative local size %d", n)
	}
	if s.Sparse > 0 && r%s.Sparse == s.Sparse-1 {
		return []uint64{}, nil
	}
	// Per-rank stream: hash (seed, rank) through splitmix, then drive the
	// paper's generator (MT19937-64) from it.
	seeder := prng.NewSplitMix64(s.Seed ^ (0x9e3779b97f4a7c15 * uint64(r+1)))
	src := prng.NewMT19937_64(seeder.Uint64())
	span := s.Span
	if span == 0 {
		span = math.MaxUint64
	}
	out := make([]uint64, n)
	switch s.Dist {
	case Uniform, "":
		for i := range out {
			out[i] = boundedDraw(src, span)
		}
	case Normal:
		norm := &prng.Normal{Src: src}
		mean := float64(span) / 2
		sigma := float64(span) / 8
		for i := range out {
			v := mean + sigma*norm.Next()
			switch {
			case v < 0:
				out[i] = 0
			case v > float64(span):
				out[i] = span
			default:
				out[i] = uint64(v)
			}
		}
	case Zipf:
		for i := range out {
			out[i] = zipfDraw(src, span)
		}
	case NearlySorted:
		// A globally ascending rank-major ramp (rank r owns [r·n, r·n+n))
		// with 1% random keys displaced anywhere.
		lo := uint64(r) * uint64(n)
		for i := range out {
			if prng.Uint64n(src, 100) == 0 {
				out[i] = boundedDraw(src, span)
			} else {
				v := lo + uint64(i)
				if v > span {
					v = span
				}
				out[i] = v
			}
		}
	case DuplicateHeavy:
		for i := range out {
			out[i] = (span / 16) * prng.Uint64n(src, 16)
		}
	case AllEqual:
		for i := range out {
			out[i] = span / 2
		}
	case Shifted:
		if s.Ranks <= 1 {
			for i := range out {
				out[i] = boundedDraw(src, span)
			}
			break
		}
		// Keys uniform within the bucket of the successor rank.
		width := span/uint64(s.Ranks) + 1
		lo := uint64((r+1)%s.Ranks) * width
		for i := range out {
			v := lo + prng.Uint64n(src, width)
			if v > span {
				v = span
			}
			out[i] = v
		}
	case ReverseSorted:
		// Globally descending rank-major ramp.
		base := span - uint64(r)*(span/1e6)
		for i := range out {
			v := base - uint64(i)
			if v > span { // underflow wrap
				v = 0
			}
			out[i] = v
		}
	case DuplicateFlood:
		// Heavy-hitter duplicate flood: with probability floodFrac the key
		// is the single flooded value, otherwise uniform.  The flood value
		// sits strictly inside the span so splitters on either side exist.
		frac := s.floodFrac()
		flood := FloodValue(span)
		// Adjudicate in integer space to keep the draw exact and cheap.
		cut := uint64(frac * float64(1<<32))
		for i := range out {
			if prng.Uint64n(src, 1<<32) < cut {
				out[i] = flood
			} else {
				out[i] = boundedDraw(src, span)
			}
		}
	case SortedOutliers:
		// Ascending rank-major ramp with an outlierFrac tail mass of
		// extreme outliers: half at the very bottom, half at the very top
		// of the range — sampled splitter guesses chase the tails while
		// the body stays sorted.
		frac := s.outlierFrac()
		cut := uint64(frac * float64(1<<32))
		lo := uint64(r) * uint64(n)
		tail := span / 1024 // the outlier bands: [0, tail] and [span-tail, span]
		for i := range out {
			if prng.Uint64n(src, 1<<32) < cut {
				if prng.Uint64n(src, 2) == 0 {
					out[i] = prng.Uint64n(src, tail+1)
				} else {
					out[i] = span - prng.Uint64n(src, tail+1)
				}
				continue
			}
			v := lo + uint64(i)
			if v > span-tail-1 {
				v = span - tail - 1 // keep the body out of the top outlier band
			}
			out[i] = v
		}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", s.Dist)
	}
	return out, nil
}

// boundedDraw returns a uniform value in [0, span] (inclusive, matching the
// paper's [0, 1e9] interval).
func boundedDraw(src prng.Source, span uint64) uint64 {
	if span == math.MaxUint64 {
		return src.Uint64()
	}
	return prng.Uint64n(src, span+1)
}

// zipfDraw approximates a Zipf(s≈1.2) draw over [0, span] via inverse
// transform on a truncated power law.
func zipfDraw(src prng.Source, span uint64) uint64 {
	u := prng.Float64(src)
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	// x ~ u^(-1/(s-1)) - 1, heavy-tailed; fold into the span.
	x := math.Pow(u, -5) - 1 // s = 1.2 -> exponent -1/(s-1) = -5
	v := uint64(x)
	if float64(span) < x {
		v = span
	}
	return v
}

// LocalSize returns rank's share of totalN elements over p ranks,
// front-loaded like the paper's partitioning: every rank gets N/p and the
// first N%p ranks one extra.
func LocalSize(totalN, p, rank int) int {
	base := totalN / p
	if rank < totalN%p {
		return base + 1
	}
	return base
}
