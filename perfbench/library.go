package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"dhsort"
	"dhsort/internal/core"
	"dhsort/internal/metrics"
)

// Input streams: every generator draws from PCG(seed, stream), so the same
// seed gives the same inputs and the workloads never share a stream.
const (
	streamSortUniform = iota + 1
	streamPaperModel
	streamSvcInline
	streamProbe
)

// paperSpan is the paper's key span.  Keys below it have constant high
// radix digits, which the radix kernel skips.
const paperSpan = 1e9

func uniformKeys(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func spanKeys(rng *rand.Rand, n int, span uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64N(span)
	}
	return out
}

func zipfKeys(rng *rand.Rand, n int) []uint64 {
	z := rand.NewZipf(rng, 1.2, 1, paperSpan)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

var sortUniform = workload{
	name: "sort-uniform",
	why: "a library sort where the local kernels dominate: full-range keys defeat radix " +
		"constant-digit skipping, 32 MiB of keys overflow every cache",
	root:   "dhsort.RunTimed",
	setups: 3,
	run: func(r *run) error {
		sh := libShape{p: 4, perRank: 1 << 20}
		if r.opts.tiny {
			sh.perRank = 1 << 14
		}
		sh.gen = func(rng *rand.Rand, n int) []uint64 { return uniformKeys(rng, n) }
		sh.stream = streamSortUniform
		sh.describe = "uniform over the full uint64 range"
		return runLibrary(r, sh)
	},
}

var paperModel = workload{
	name: "paper-model",
	why: "the modelled paper run: prices simnet at paper-scale traffic, so a change to the " +
		"algorithm's communication moves its modelled makespan while kernel work cannot",
	root:   "dhsort.RunTimed",
	setups: 3,
	run: func(r *run) error {
		sh := libShape{p: 256, perRank: 8192, model: dhsort.SuperMUCModel(16, true), scale: 4096}
		if r.opts.tiny {
			sh.p, sh.perRank = 16, 512
		}
		sh.gen = func(rng *rand.Rand, n int) []uint64 { return spanKeys(rng, n, paperSpan) }
		sh.stream = streamPaperModel
		sh.describe = "uniform over [0, 1e9), SuperMUC PGAS model (16 ranks/node), VirtualScale 4096"
		return runLibrary(r, sh)
	},
}

// libShape is one library workload: a fresh world of p ranks per sort,
// each rank sorting perRank keys with one thread.
type libShape struct {
	p, perRank int
	model      *dhsort.CostModel
	scale      float64
	stream     uint64
	gen        func(rng *rand.Rand, n int) []uint64
	describe   string
}

// runLibrary drives dhsort.RunTimed + Sort + IsGloballySorted in a closed
// loop from one caller.  In a traced run every other sort carries a
// Recorder and spans.
func runLibrary(r *run, sh libShape) error {
	rng := rand.New(rand.NewPCG(r.opts.seed, sh.stream))
	master := make([][]uint64, sh.p)
	var want digest
	for rank := range master {
		master[rank] = sh.gen(rng, sh.perRank)
		d := digestOf(master[rank])
		want.n += d.n
		want.sum += d.sum
		want.xor ^= d.xor
	}
	fmt.Fprintf(r.log, "shape: P=%d, Threads=1, %d keys per rank (%d total), %s, fresh world per sort, one closed-loop caller\n",
		sh.p, sh.perRank, want.n, sh.describe)
	bufs := make([][]uint64, sh.p)
	cfg := dhsort.Config{Threads: 1, VirtualScale: sh.scale}

	op := func(traced bool) opResult {
		id := r.opID()
		for rank := range bufs {
			bufs[rank] = append(bufs[rank][:0], master[rank]...)
		}
		outs := make([][]uint64, sh.p)
		verdict := make([]bool, sh.p)
		recs := make([]*metrics.Recorder, sh.p)
		sortAt := make([]time.Time, sh.p)
		sortEnd := make([]time.Time, sh.p)
		verEnd := make([]time.Time, sh.p)
		t0 := time.Now()
		makespan, err := dhsort.RunTimed(sh.p, sh.model, func(c *dhsort.Comm) error {
			rank := c.Rank()
			cfg := cfg
			if traced {
				recs[rank] = metrics.ForComm(c)
				cfg.Recorder = recs[rank]
			}
			sortAt[rank] = time.Now()
			out, err := dhsort.Sort(c, bufs[rank], dhsort.Uint64Ops, cfg)
			if err != nil {
				return err
			}
			sortEnd[rank] = time.Now()
			verdict[rank] = dhsort.IsGloballySorted(c, out, dhsort.Uint64Ops)
			verEnd[rank] = time.Now()
			outs[rank] = out
			return nil
		})
		t1 := time.Now()
		o := opResult{traced: traced, keys: want.n, lat: t1.Sub(t0), end: t1, makespan: makespan, err: err}
		if err == nil {
			r.corrupt(id, outs[sh.p/2])
			c := newChecker(want)
			for rank := range outs {
				c.add(outs[rank])
				if !verdict[rank] && o.err == nil {
					o.err = fmt.Errorf("IsGloballySorted returned false on rank %d", rank)
				}
			}
			if cerr := c.err(); cerr != nil {
				o.err = cerr
			}
		}
		r.tr.add("bench.check", -1, id, t1, time.Now())
		if traced && err == nil {
			o.layer = libraryLayers(r, sh, id, t0, t1, recs, sortAt, sortEnd, verEnd)
		}
		return o
	}

	for i := 0; i < r.wl.setups; i++ {
		o := op(false)
		o.warm = true
		r.setup = append(r.setup, o.lat)
		r.record(o)
	}
	r.rssAfter = 8
	deadline := r.beginMeasure()
	for i := 0; time.Now().Before(deadline); i++ {
		r.record(op(r.tr != nil && i%2 == 1))
	}
	return nil
}

// libraryLayers turns one traced sort into per-layer samples and spans:
// the Recorder's phase times (slowest rank and mean), the world's own
// set-up and teardown (RunTimed minus the slowest rank's time inside the
// rank function), and the collective verification.
func libraryLayers(r *run, sh libShape, id int64, t0, t1 time.Time, recs []*metrics.Recorder,
	sortAt, sortEnd, verEnd []time.Time) map[string]float64 {
	s := metrics.Summarize(recs)
	slow := 0
	for rank := range recs {
		if verEnd[rank].Sub(sortAt[rank]) > verEnd[slow].Sub(sortAt[slow]) {
			slow = rank
		}
	}
	var verify time.Duration
	for rank := range recs {
		verify = max(verify, verEnd[rank].Sub(sortEnd[rank]))
	}
	v := map[string]float64{
		"core.localsort_ms":      ms(s.MaxTimes[metrics.LocalSort]),
		"core.localsort_mean_ms": ms(s.Times[metrics.LocalSort]),
		"core.merge_ms":          ms(s.MaxTimes[metrics.Merge]),
		"core.merge_mean_ms":     ms(s.Times[metrics.Merge]),
		"core.splitting_ms":      ms(s.MaxTimes[metrics.Histogram]),
		"core.splitting_rounds":  float64(s.MaxIterations),
		"comm.exchange_ms":       ms(s.MaxTimes[metrics.Exchange]),
		"comm.messages":          float64(s.TotalMessages()),
		"comm.bytes":             float64(s.TotalBytes()),
		"comm.world_setup_ms":    ms(t1.Sub(t0) - verEnd[slow].Sub(sortAt[slow])),
		"core.verify_ms":         ms(verify),
	}
	if sh.model != nil {
		v["model.localsort_ms"] = ms(s.MaxTimes[metrics.LocalSort])
		v["model.histogram_ms"] = ms(s.MaxTimes[metrics.Histogram])
		v["model.exchange_ms"] = ms(s.MaxTimes[metrics.Exchange])
		v["model.merge_ms"] = ms(s.MaxTimes[metrics.Merge])
	}

	root := r.tr.add("dhsort.RunTimed", -1, id, t0, t1)
	sorted := r.tr.add("core.Sort", root, id, sortAt[slow], sortEnd[slow])
	if sh.model == nil {
		// Wall-clock phases of the slowest rank, laid end to end from the
		// start of its Sort call; whatever is left is core.Sort's self time.
		at := sortAt[slow]
		var segs []segment
		for _, ph := range []struct {
			name  string
			phase metrics.Phase
		}{{"core.LocalSort", metrics.LocalSort}, {"core.Splitting", metrics.Histogram},
			{"comm.Exchange", metrics.Exchange}, {"core.Merge", metrics.Merge}} {
			d := recs[slow].Times[ph.phase]
			segs = append(segs, segment{ph.name, at, at.Add(d)})
			at = at.Add(d)
		}
		r.tr.chain(sorted, id, segs)
	}
	r.tr.add("core.IsGloballySorted", root, id, sortEnd[slow], verEnd[slow])
	return v
}

// corrupt damages one key of operation id's output when a self-test asks
// for it, so the test can prove the checker counts the operation failed.
func (r *run) corrupt(id int64, out []uint64) {
	if id == r.opts.corruptOp && len(out) > 0 {
		out[len(out)/2] ^= 1 << 40
	}
}

// kernelProbe times the Local Sort kernel dispatch against slices.Sort on
// the same inputs in the same run, one thread, alternating which goes
// first: full-range uniform keys (every radix pass runs) and zipf keys over
// 1e9 (constant high digits are skipped).  Each output is checked.  It runs
// once the workload has stopped, after a collection, so neither the
// workload's goroutines nor its garbage share the processor with it.
func kernelProbe(r *run) {
	runtime.GC()
	n, reps := 1<<20, 5
	if r.opts.tiny {
		n, reps = 1<<12, 2
	}
	rng := rand.New(rand.NewPCG(r.opts.seed, streamProbe))
	for _, in := range []struct {
		prefix string
		keys   []uint64
	}{{"sortutil.radix", uniformKeys(rng, n)}, {"sortutil.radix_zipf", zipfKeys(rng, n)}} {
		want := digestOf(in.keys)
		buf := make([]uint64, n)
		var radix, std []float64
		for i := 0; i < reps; i++ {
			for k := 0; k < 2; k++ {
				copy(buf, in.keys)
				id := r.opID()
				t0 := time.Now()
				name := "slices.Sort"
				if (i+k)%2 == 0 {
					name = "core.LocalSortKernel"
					core.LocalSortKernel(buf, dhsort.Uint64Ops, "", 1, nil)
				} else {
					slices.Sort(buf)
				}
				t1 := time.Now()
				r.tr.add(name, -1, id, t0, t1)
				r.corrupt(id, buf)
				o := opResult{warm: true, keys: n, lat: t1.Sub(t0), end: t1, err: checkSorted(buf, want)}
				if o.err != nil {
					o.err = fmt.Errorf("%s on %s input: %w", name, in.prefix, o.err)
				}
				r.record(o)
				if name == "slices.Sort" {
					std = append(std, float64(t1.Sub(t0)))
				} else {
					radix = append(radix, float64(t1.Sub(t0)))
				}
			}
		}
		r.setLayer(in.prefix+"_ns_per_key", median(radix)/float64(n))
		r.setLayer(in.prefix+"_vs_slices_ratio", median(radix)/median(std))
		fmt.Fprintf(r.log, "kernel probe %s: %d keys, LocalSortKernel %.2f ms, slices.Sort %.2f ms (median of %d)\n",
			in.prefix, n, median(radix)/1e6, median(std)/1e6, reps)
	}
}
