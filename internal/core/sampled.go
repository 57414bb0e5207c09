package core

import (
	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/prng"
	"dhsort/internal/psort"
	"dhsort/internal/sortutil"
	"dhsort/internal/xmath"
)

// sampledOversampling is the number of random local keys each rank
// contributes to the sample that seeds the sampled finder's probes —
// roughly the constant-per-processor sample of HSS.
const sampledOversampling = 16

// sampledState is one splitter's refinement state in the sampled finder.
type sampledState[K any] struct {
	lo, hi       K     // current bound values: the answer lies in (lo, hi]
	cntLo, cntHi int64 // ranks known at the bounds: L(lo), U(hi)
	probe        K
	loProbed     bool // adjacency protocol: lo itself has been probed
	done         bool
	value        K
}

// sampleSplitters is the SplitSampled finder (HSS): quantiles of a gathered
// sample seed the probes, and failed probes are re-aimed by linear
// interpolation of the target rank between the current histogram bounds.
// Config.Probes > 1 adds up to k-1 evenly spaced auxiliary probes across
// each interval, which keeps bracketing progress when the interpolation
// assumption breaks on skewed keys.  Acceptance is the same Definition 4
// condition as bisection; it returns the splitters and the round count.
func sampleSplitters[K any](c *comm.Comm, src sortedSource[K], ops keys.Ops[K], targets []int64, tol int64, cfg Config) ([]K, int) {
	nsplit := len(targets)
	if nsplit == 0 {
		return nil, 0
	}
	model := c.Model()
	n := src.Len()

	// Sample: each non-empty rank contributes random local keys.
	var sample []K
	if n > 0 {
		rng := prng.NewXoshiro256(cfg.Seed ^ uint64(c.Rank()+1)*0x9e3779b97f4a7c15)
		sample = make([]K, sampledOversampling)
		for i := range sample {
			sample[i] = src.At(int(prng.Uint64n(rng, uint64(n))))
		}
	}
	var pool []K
	for _, b := range comm.Allgather(c, sample) {
		pool = append(pool, b...)
	}
	sortutil.Sort(pool, ops.Less)
	if len(pool) == 0 {
		return make([]K, nsplit), 0 // globally empty
	}

	// Global extrema and total, as in bisection.
	local := minMax{}
	if mn, mx, ok := src.Extrema(); ok {
		local = minMax{Has: true, Min: mn, Max: mx}
	}
	ext := comm.AllreduceOne(c, local, mergeMinMax)
	grandTotal := comm.AllreduceOne(c, int64(n), func(a, b int64) int64 { return a + b })

	states := make([]sampledState[K], nsplit)
	for i := range states {
		st := &states[i]
		st.lo, st.hi = ops.FromBits(ext.Min), ops.FromBits(ext.Max)
		st.cntLo, st.cntHi = 0, grandTotal
		// Initial probe: the matching sample quantile.
		idx := int(int64(len(pool)) * targets[i] / max(grandTotal, 1))
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		st.probe = pool[idx]
		if !ops.Less(st.lo, st.probe) || !ops.Less(st.probe, st.hi) {
			// Quantile outside the open interval: start at the middle.
			st.probe = ops.FromBits(ext.Min.Avg(ext.Max))
		}
		switch {
		case targets[i] <= 0:
			st.done, st.value = true, st.lo
		case targets[i] >= grandTotal:
			st.done, st.value = true, st.hi
		case !ops.Less(st.lo, st.hi):
			// Single distinct value: it is every splitter.
			st.done, st.value = true, st.hi
		case !ops.Less(st.lo, st.probe) || !ops.Less(st.probe, st.hi):
			// Adjacent extrema: probe the lower bound directly.
			st.probe, st.loProbed = st.lo, true
		}
	}

	k := cfg.probes()
	if k > 1 {
		cfg.Recorder.SetProbes(k)
	}
	iters := 0
	hist := make([]int64, 2*k*nsplit)
	probeVals := make([]K, 0, k*nsplit)
	offs := make([]int, 0, nsplit+1)
	var active []int
	for iters < cfg.maxIters() {
		active = active[:0]
		for i := range states {
			if !states[i].done {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}
		iters++
		cfg.Recorder.AddIteration()

		// Probe vector: the interpolated primary probe, plus up to k-1
		// evenly spaced auxiliary probes when the interval is wide enough.
		// Each boundary's probes are sorted ascending so the histogram
		// counts can bracket the answer in a single scan.
		probeVals = probeVals[:0]
		offs = append(offs[:0], 0)
		for _, i := range active {
			st := &states[i]
			start := len(probeVals)
			probeVals = append(probeVals, st.probe)
			if k > 1 && ops.Less(st.lo, st.probe) && ops.Less(st.probe, st.hi) {
				loB, hiB := ops.ToBits(st.lo), ops.ToBits(st.hi)
				pB := ops.ToBits(st.probe)
				if step := hiB.Sub(loB).Div64(uint64(k)); step != (xmath.U128{}) {
					b := loB
					for j := 1; j < k; j++ {
						b = b.Add(step)
						if b == pB {
							continue
						}
						if m := ops.FromBits(b); ops.Less(st.lo, m) && ops.Less(m, st.hi) {
							probeVals = append(probeVals, m)
						}
					}
				}
			}
			sortutil.Sort(probeVals[start:], ops.Less)
			offs = append(offs, len(probeVals))
		}
		np := len(probeVals)

		curHist := hist[:2*np]
		workers := searchWorkers(cfg.threads(), np, n)
		psort.ParallelFor(np, workers, func(pi int) {
			curHist[2*pi] = int64(src.LowerBound(probeVals[pi]))
			curHist[2*pi+1] = int64(src.UpperBound(probeVals[pi]))
		})
		if model != nil {
			c.Clock().Advance(model.Threaded(model.SearchCost(n, 2*np), workers))
		}
		global := comm.AllreduceInPlace(c, curHist, func(a, b int64) int64 { return a + b })

		for ai, i := range active {
			st := &states[i]
			T := targets[i]
		scan:
			for j := offs[ai]; j < offs[ai+1]; j++ {
				L, U := global[2*j], global[2*j+1]
				switch {
				case L-tol < T && T <= U+tol:
					st.done, st.value = true, probeVals[j]
					break scan
				case L >= T:
					// At or below this probe — and every later probe of
					// this boundary only counts more.
					st.hi, st.cntHi = probeVals[j], U
					break scan
				default: // U < T: strictly above; probes ascend, last wins.
					st.lo, st.cntLo = probeVals[j], L
				}
			}
			if st.done {
				continue
			}
			// Re-aim by interpolating the target rank between the bounds
			// — the sampling assumption of HSS.
			frac := 0.5
			if st.cntHi > st.cntLo {
				frac = float64(T-st.cntLo) / float64(st.cntHi-st.cntLo)
			}
			next := ops.FromBits(xmath.Lerp(ops.ToBits(st.lo), ops.ToBits(st.hi), frac))
			if !ops.Less(st.lo, next) || !ops.Less(next, st.hi) {
				// Interpolation collapsed onto a bound; try bisection.
				next = ops.FromBits(ops.ToBits(st.lo).Avg(ops.ToBits(st.hi)))
			}
			switch {
			case ops.Less(st.lo, next) && ops.Less(next, st.hi):
				st.probe = next
			case !st.loProbed:
				// lo and hi are adjacent representable values: the split
				// point is lo or hi.  Probe lo once; if it fails, hi is
				// the answer.
				st.probe, st.loProbed = st.lo, true
			default:
				st.done, st.value = true, st.hi
			}
		}
	}
	out := make([]K, nsplit)
	for i := range states {
		st := &states[i]
		if !st.done {
			st.value = st.hi // iteration cap hit: accept the current top
		}
		out[i] = st.value
	}
	sortutil.Sort(out, ops.Less)
	return out, iters
}
