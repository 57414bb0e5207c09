package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// runSortFaults is runSort on a fault-injecting world; it additionally
// returns the world for counter assertions and the per-rank recorders.
func runSortFaults(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel, plan fault.Plan) (ins, outs [][]uint64, w *comm.World, recs []*metrics.Recorder) {
	t.Helper()
	w, err := comm.NewWorldWithFaults(p, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	recs = make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		runCfg := cfg
		runCfg.Recorder = rec
		out, err := Sort(c, local, u64, runCfg)
		if err != nil {
			return err
		}
		rec.Finish()
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs, w, recs
}

// acceptancePlan is the resilience acceptance schedule: 5% drop rate plus
// two injected crashes at distinct superstep boundaries.
func acceptancePlan(p int) fault.Plan {
	return fault.Plan{
		Seed:     7,
		DropRate: 0.05,
		Crashes: []fault.Crash{
			{Rank: p / 3, Step: StepSplitting},
			{Rank: 2 * p / 3, Step: StepCuts},
		},
	}
}

// TestSortSurvivesFaultSchedule is the acceptance test of the fault plane:
// at a 5% seeded drop rate with two injected crashes, a P=16 sort must
// produce output bit-identical to the fault-free run of the same workload,
// with either splitter finder.
func TestSortSurvivesFaultSchedule(t *testing.T) {
	forEachFinder(t, Config{Threads: 1}, testSortSurvivesFaultSchedule)
}

func testSortSurvivesFaultSchedule(t *testing.T, cfg Config) {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}

	_, want := runSort(t, p, spec, perRank, cfg, model)
	ins, got, w, recs := runSortFaults(t, p, spec, perRank, cfg, model, acceptancePlan(p))
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("faulty run's output differs from the fault-free run")
	}

	f := w.TotalStats().Fault
	if f.Drops == 0 || f.Retries != f.Drops {
		t.Errorf("drop schedule did not exercise the retry path: %+v", f)
	}
	s := metrics.Summarize(recs)
	if s.Fault.Recoveries != 2 {
		t.Errorf("2 crashes scheduled, %d recoveries recorded", s.Fault.Recoveries)
	}
	if s.Fault.Checkpoints == 0 || s.Fault.CheckpointBytes == 0 {
		t.Errorf("no checkpoints recorded: %+v", s.Fault)
	}
	if s.Fault.RecoveryNS <= 0 {
		t.Errorf("recovery must cost virtual time: %+v", s.Fault)
	}
}

// TestSortFaultDeterminism pins bit-reproducibility of a failure run: same
// plan, same workload — same output, same fault counters, same makespan.
func TestSortFaultDeterminism(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Zipf, Seed: 11, Span: 1e9}
	plan := fault.Plan{Seed: 5, DropRate: 0.03, DupRate: 0.02, DelayRate: 0.05, ReorderRate: 0.02,
		Stalls: []fault.Stall{{Rank: 1, Step: StepLocalSort, D: 100 * time.Microsecond}}}

	_, out1, w1, _ := runSortFaults(t, p, spec, perRank, Config{Threads: 1}, model, plan)
	_, out2, w2, _ := runSortFaults(t, p, spec, perRank, Config{Threads: 1}, model, plan)
	if !reflect.DeepEqual(out1, out2) {
		t.Error("outputs differ between identical failure runs")
	}
	if s1, s2 := w1.TotalStats(), w2.TotalStats(); s1 != s2 {
		t.Errorf("fault counters differ:\n%+v\n%+v", s1.Fault, s2.Fault)
	}
	if w1.Makespan() != w2.Makespan() {
		t.Errorf("virtual makespan differs: %v vs %v", w1.Makespan(), w2.Makespan())
	}
}

// TestSortFaultFreeZeroOverhead pins the fast-path guarantee: a fault-free
// world runs exactly as before the fault plane existed — same output, same
// makespan, no fault counters, no checkpoints.
func TestSortFaultFreeZeroOverhead(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 2, Span: 1e9}

	_, out1, w2, recs := runSortFaults(t, p, spec, perRank, Config{Threads: 1}, model, fault.Plan{})
	_, out2 := runSort(t, p, spec, perRank, Config{Threads: 1}, model)
	if !reflect.DeepEqual(out1, out2) {
		t.Error("zero plan changed the output")
	}
	if f := w2.TotalStats().Fault; f.Any() {
		t.Errorf("zero plan produced fault counters: %+v", f)
	}
	if s := metrics.Summarize(recs); s.Fault.Any() || s.FaultEvents != 0 {
		t.Errorf("zero plan produced fault metrics: %+v", s.Fault)
	}
}

// TestExchangeBackendsUnderDelayInjection sweeps the exchange backends —
// including the hierarchical leader aggregation and its one-factor fallback
// — under delay and reorder injection, with a stall pinned on rank 0 (the
// node leader of the hierarchical exchange) at the cuts boundary.  Every
// backend must still produce the perfect partitioning.
func TestExchangeBackendsUnderDelayInjection(t *testing.T) {
	const p, perRank = 8, 512
	plan := fault.Plan{
		Seed: 9, DelayRate: 0.2, MaxDelay: 30 * time.Microsecond, ReorderRate: 0.1,
		Stalls: []fault.Stall{{Rank: 0, Step: StepCuts, D: 150 * time.Microsecond}},
	}
	spec := workload.Spec{Dist: workload.Uniform, Seed: 4, Span: 1e9}
	backends := []comm.AlltoallAlgorithm{
		comm.AlltoallPairwise, comm.AlltoallOneFactor, comm.AlltoallBruck, comm.AlltoallHierarchical,
	}
	for _, model := range []*simnet.CostModel{simnet.SuperMUC(4, true), nil} {
		for _, ex := range backends {
			cfg := Config{Threads: 1, Exchange: ex}
			ins, outs, _, _ := runSortFaults(t, p, spec, perRank, cfg, model, plan)
			checkSorted(t, ins, outs, true, 0)
		}
	}
}

// TestHierarchicalFallbackUnderDelay pins the topology edge case: without
// node topology (nil model) the hierarchical exchange silently degrades to
// the one-factor schedule; delay injection must not break the fallback, and
// the recorder must still name what actually ran.
func TestHierarchicalFallbackUnderDelay(t *testing.T) {
	const p, perRank = 8, 512
	plan := fault.Plan{Seed: 13, DelayRate: 0.3, MaxDelay: 20 * time.Microsecond}
	spec := workload.Spec{Dist: workload.Uniform, Seed: 6, Span: 1e9}
	cfg := Config{Threads: 1, Exchange: comm.AlltoallHierarchical}

	// Modelled world: real node topology, the hierarchical path proper.
	ins, outs, _, recs := runSortFaults(t, p, spec, perRank, cfg, simnet.SuperMUC(4, true), plan)
	checkSorted(t, ins, outs, true, 0)
	if alg := metrics.Summarize(recs).ExchangeAlg; alg != comm.AlltoallHierarchical.String() {
		t.Errorf("modelled world ran %q, want %q", alg, comm.AlltoallHierarchical)
	}

	// Real-time world: no topology, must fall back to one-factor.
	ins, outs, _, recs = runSortFaults(t, p, spec, perRank, cfg, nil, plan)
	checkSorted(t, ins, outs, true, 0)
	if alg := metrics.Summarize(recs).ExchangeAlg; alg != comm.AlltoallOneFactor.String() {
		t.Errorf("topology-free world ran %q, want one-factor fallback", alg)
	}
}

// TestCheckpointChecksumDetectsCorruption pins the restore audit: a snapshot
// whose checksum no longer matches must abort loudly, not sort wrong data.
func TestCheckpointChecksumDetectsCorruption(t *testing.T) {
	ck := &checkpoint[uint64]{ops: u64}
	s := ckptShard[uint64]{Desc: ckptDesc{Step: StepLocalSort}, Sorted: []uint64{3, 1, 4, 1, 5}}
	want, err := ck.shardSum(s, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Sorted[2] ^= 1 // bit flip in "stable storage"
	if got, _ := ck.shardSum(s, 0, false); got == want {
		t.Fatal("checksum did not notice a corrupted snapshot")
	}
}
