package core

import (
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/metrics"
	"dhsort/internal/workload"
)

// The sort contract tests take the sampled finder as a table input (see
// forEachFinder); the tests here pin what is specific to it.

// sampled returns a configuration running the SplitSampled finder (HSS).
func sampled(seed uint64) Config {
	return Config{Splitter: SplitSampled, Seed: seed}
}

// sampledIterations runs a P=8 sort and returns its refinement round count.
func sampledIterations(t *testing.T, spec workload.Spec, perRank int, cfg Config) int {
	t.Helper()
	const p = 8
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		runCfg := cfg
		runCfg.Recorder = rec
		_, err = Sort(c, local, u64, runCfg)
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return metrics.Summarize(recs).MaxIterations
}

func TestSampledUniform(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		spec := workload.Spec{Dist: workload.Uniform, Seed: uint64(p), Span: 1e9}
		ins, outs := runSort(t, p, spec, 400, sampled(2), nil)
		checkSorted(t, ins, outs, true, 0)
	}
}

func TestSampledNormalAndSkewed(t *testing.T) {
	for _, d := range []workload.Distribution{workload.Normal, workload.Zipf, workload.NearlySorted} {
		spec := workload.Spec{Dist: d, Seed: 3, Span: 1e9}
		ins, outs := runSort(t, 8, spec, 500, sampled(4), nil)
		checkSorted(t, ins, outs, true, 0)
	}
}

func TestSampledDuplicates(t *testing.T) {
	for _, d := range []workload.Distribution{workload.DuplicateHeavy, workload.AllEqual} {
		spec := workload.Spec{Dist: d, Seed: 5, Span: 1e9}
		ins, outs := runSort(t, 6, spec, 300, sampled(6), nil)
		checkSorted(t, ins, outs, true, 0)
	}
}

func TestSampledMultiProbeNoSlowerOnSkew(t *testing.T) {
	// Auxiliary probes bracket the answer even when interpolation misfires:
	// on zipf keys, 8 probes per boundary must not take more rounds than
	// the single interpolated probe.
	spec := workload.Spec{Dist: workload.Zipf, Seed: 31, Span: 1e9}
	single := sampledIterations(t, spec, 500, sampled(32))
	cfg := sampled(32)
	cfg.Probes = 8
	multi := sampledIterations(t, spec, 500, cfg)
	if multi > single {
		t.Errorf("8-probe refinement took %d rounds, single-probe %d", multi, single)
	}
}

func TestSampledConvergesFasterOnUniformThanSkewed(t *testing.T) {
	// The sampling/interpolation assumption of HSS: uniform keys converge
	// in few iterations; skew slows convergence (the volatility the paper
	// observed, §VI-B/C).
	iters := func(d workload.Distribution) int {
		return sampledIterations(t, workload.Spec{Dist: d, Seed: 21, Span: 1e9}, 1000, sampled(9))
	}
	uni := iters(workload.Uniform)
	zipf := iters(workload.Zipf)
	if uni == 0 {
		t.Fatal("no iterations recorded")
	}
	if zipf < uni {
		t.Logf("note: zipf converged faster than uniform (%d vs %d) on this seed", zipf, uni)
	}
	if uni > 60 {
		t.Errorf("uniform keys should converge quickly, took %d iterations", uni)
	}
}

// TestSampledIterationCap pins the sampled finder's own default cap (512
// rounds, not bisection's key-width bound) and that an explicit
// MaxIterations still bounds it.
func TestSampledIterationCap(t *testing.T) {
	if got := sampled(1).maxIters(); got != 512 {
		t.Errorf("sampled default cap %d, want 512", got)
	}
	if got := (Config{}).maxIters(); got != 130 {
		t.Errorf("bisection default cap %d, want 130", got)
	}
	spec := workload.Spec{Dist: workload.Zipf, Seed: 31, Span: 1e9}
	cfg := sampled(32)
	cfg.MaxIterations = 2
	if got := sampledIterations(t, spec, 500, cfg); got > 2 {
		t.Errorf("MaxIterations 2 ran %d rounds", got)
	}
}
