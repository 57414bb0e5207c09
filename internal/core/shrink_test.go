package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// runSortShrink runs SortResilient on a fault-injecting world and returns
// the per-world-rank inputs and outputs (nil for ranks that died), the
// world, the per-rank recorders (registered before the sort so a victim's
// partial tallies survive its exit), and the per-rank effective
// communicator sizes.  The w.Run error is returned, not fataled, so tests
// can assert on typed failure modes.
func runSortShrink(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel, plan fault.Plan) (ins, outs [][]uint64, w *comm.World, recs []*metrics.Recorder, effSizes []int, runErr error) {
	t.Helper()
	w, err := comm.NewWorldWithFaults(p, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	recs = make([]*metrics.Recorder, p)
	effSizes = make([]int, p)
	var mu sync.Mutex
	runErr = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		mu.Lock()
		ins[c.Rank()] = local
		recs[c.Rank()] = rec
		mu.Unlock()
		runCfg := cfg
		runCfg.Recorder = rec
		out, eff, err := SortResilient(c, local, u64, runCfg)
		if err != nil {
			return err
		}
		if !IsGloballySorted(eff, out, u64) {
			t.Errorf("rank %d: output not globally sorted on the effective communicator", c.Rank())
		}
		rec.Finish()
		mu.Lock()
		outs[c.Rank()] = out
		effSizes[c.Rank()] = eff.Size()
		mu.Unlock()
		return nil
	})
	return ins, outs, w, recs, effSizes, runErr
}

// TestSortShrinkRecovery is the graceful-degradation acceptance test: a
// P=16 sort with rank 3 dying permanently at the first boundary and
// Recovery == "shrink" must complete on the 15 survivors with a globally
// sorted, loss-free (multiset-identical) output — the dead rank's elements
// adopted from its ring-mirrored checkpoint shard — with either splitter
// finder.
func TestSortShrinkRecovery(t *testing.T) {
	forEachFinder(t, Config{Threads: 1, Recovery: RecoveryShrink}, testSortShrinkRecovery)
}

func testSortShrinkRecovery(t *testing.T, cfg Config) {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 3, Step: StepLocalSort}}}

	ins, outs, _, recs, effSizes, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	if outs[3] != nil {
		t.Error("dead rank 3 produced output")
	}
	for r, sz := range effSizes {
		if r == 3 {
			continue
		}
		if sz != p-1 {
			t.Errorf("rank %d finished on a communicator of size %d, want %d", r, sz, p-1)
		}
	}
	checkSorted(t, ins, outs, false, 0)

	s := metrics.Summarize(recs)
	if s.Fault.Deaths != 1 {
		t.Errorf("1 death scheduled, %d recorded", s.Fault.Deaths)
	}
	if s.Fault.Shrinks != int64(p-1) {
		t.Errorf("every survivor should record one shrink: got %d, want %d", s.Fault.Shrinks, p-1)
	}
	if s.Survivors != p-1 {
		t.Errorf("survivor count %d, want %d", s.Survivors, p-1)
	}
	if s.Fault.AgreeRounds == 0 {
		t.Error("no agreement rounds recorded")
	}
	if s.Fault.ShrinkNS <= 0 {
		t.Error("shrink recovery must cost virtual time")
	}
}

// TestSortShrinkUnderDrops composes the two fault planes: a permanent death
// at the splitting boundary while every message is exposed to a seeded 3%
// drop rate.  Recovery must still be loss-free, including the redo epoch on
// the shrunken communicator.
func TestSortShrinkUnderDrops(t *testing.T) {
	const p, perRank = 16, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Zipf, Seed: 11, Span: 1e9}
	plan := fault.Plan{Seed: 9, DropRate: 0.03,
		Deaths: []fault.Death{{Rank: 5, Step: StepSplitting}}}
	cfg := Config{Threads: 1, Recovery: RecoveryShrink}

	ins, outs, w, _, _, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, ins, outs, false, 0)
	if f := w.TotalStats().Fault; f.Drops == 0 || f.Retries != f.Drops {
		t.Errorf("drop schedule did not exercise the retry path: %+v", f)
	}
}

// TestSortShrinkDeterminism pins bit-reproducibility of a shrink recovery:
// identical runs produce identical outputs, identical fault counters and an
// identical virtual makespan.
func TestSortShrinkDeterminism(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 2, Span: 1e9}
	plan := fault.Plan{Seed: 5, Deaths: []fault.Death{{Rank: 2, Step: StepSplitting}}}
	cfg := Config{Threads: 1, Recovery: RecoveryShrink}

	_, out1, w1, _, _, err1 := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	_, out2, w2, _, _, err2 := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Error("outputs differ between identical shrink-recovery runs")
	}
	if s1, s2 := w1.TotalStats(), w2.TotalStats(); s1 != s2 {
		t.Errorf("fault counters differ:\n%+v\n%+v", s1.Fault, s2.Fault)
	}
	if w1.Makespan() != w2.Makespan() {
		t.Errorf("virtual makespan differs: %v vs %v", w1.Makespan(), w2.Makespan())
	}
}

// TestSortShrinkTwoDeaths degrades twice: a death at the first boundary
// shrinks P=16 to 15, then a second (non-adjacent) rank dies at the
// splitting boundary of the redo epoch and the survivors shrink to 14.
func TestSortShrinkTwoDeaths(t *testing.T) {
	const p, perRank = 16, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 4, Span: 1e9}
	plan := fault.Plan{Seed: 3, Deaths: []fault.Death{
		{Rank: 3, Step: StepLocalSort},
		{Rank: 9, Step: StepSplitting},
	}}
	cfg := Config{Threads: 1, Recovery: RecoveryShrink}

	ins, outs, _, recs, effSizes, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	if outs[3] != nil || outs[9] != nil {
		t.Error("a dead rank produced output")
	}
	for r, sz := range effSizes {
		if r == 3 || r == 9 {
			continue
		}
		if sz != p-2 {
			t.Errorf("rank %d finished on a communicator of size %d, want %d", r, sz, p-2)
		}
	}
	checkSorted(t, ins, outs, false, 0)
	s := metrics.Summarize(recs)
	if s.Fault.Deaths != 2 {
		t.Errorf("2 deaths scheduled, %d recorded", s.Fault.Deaths)
	}
	if s.Survivors != p-2 {
		t.Errorf("survivor count %d, want %d", s.Survivors, p-2)
	}
}

// TestSortShrinkForceUnique runs the shrink recovery under the uniqueness
// transformation: adoption happens on (key, rank, index) triples, and the
// stripped output must still be loss-free.
func TestSortShrinkForceUnique(t *testing.T) {
	const p, perRank = 8, 512
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Zipf, Seed: 6, Span: 1e3} // heavy duplicates
	plan := fault.Plan{Seed: 2, Deaths: []fault.Death{{Rank: 1, Step: StepLocalSort}}}
	cfg := Config{Threads: 1, Recovery: RecoveryShrink, ForceUnique: true}

	ins, outs, _, _, _, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, ins, outs, false, 0)
}

// TestSortShrinkAdjacentDeathsLoseShard pins the loss audit: when a rank
// and its ring successor — the holder of its mirrored shard — die at the
// same boundary, the sort cannot be loss-free and must fail with the typed
// ErrShardLost rather than return silently incomplete output.
func TestSortShrinkAdjacentDeathsLoseShard(t *testing.T) {
	const p, perRank = 8, 512
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 8, Span: 1e9}
	plan := fault.Plan{Seed: 1, Deaths: []fault.Death{
		{Rank: 3, Step: StepLocalSort},
		{Rank: 4, Step: StepLocalSort},
	}}
	cfg := Config{Threads: 1, Recovery: RecoveryShrink}

	_, _, _, _, _, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if !errors.Is(err, ErrShardLost) {
		t.Fatalf("adjacent deaths must surface ErrShardLost, got: %v", err)
	}
}

// TestSortRespawnModeDeathIsFatal pins the default mode's contract: without
// Recovery == "shrink", a permanent death surfaces as the typed
// comm.ErrRankDead instead of hanging or panicking the process.
func TestSortRespawnModeDeathIsFatal(t *testing.T) {
	const p, perRank = 8, 512
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 5, Span: 1e9}
	plan := fault.Plan{Seed: 4, Deaths: []fault.Death{{Rank: 2, Step: StepLocalSort}}}

	_, _, _, _, _, err := runSortShrink(t, p, spec, perRank, Config{Threads: 1}, model, plan)
	if !errors.Is(err, comm.ErrRankDead) {
		t.Fatalf("death without shrink recovery must surface comm.ErrRankDead, got: %v", err)
	}
}

// TestSortDoubleCrashAdjacent pins the respawn path's behaviour when a rank
// AND its ring successor crash at the same superstep boundary: unlike a
// double death, both ranks keep their own stable-storage snapshots, respawn
// independently, and the run completes bit-identical to the fault-free run.
func TestSortDoubleCrashAdjacent(t *testing.T) {
	const p, perRank = 16, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Crashes: []fault.Crash{
		{Rank: 5, Step: StepSplitting},
		{Rank: 6, Step: StepSplitting},
	}}

	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, model)
	ins, got, _, recs := runSortFaults(t, p, spec, perRank, Config{Threads: 1}, model, plan)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("adjacent double crash changed the output")
	}
	if s := metrics.Summarize(recs); s.Fault.Recoveries != 2 {
		t.Errorf("2 crashes scheduled, %d recoveries recorded", s.Fault.Recoveries)
	}
}

// TestCheckpointCorruptFallsBackToMirror pins the restore audit: a snapshot
// that fails its checksum audit is transparently re-restored from the ring
// mirror's retained send image; only when that replica is rotten too does
// the restore fail, with the typed ErrCheckpointCorrupt.
func TestCheckpointCorruptFallsBackToMirror(t *testing.T) {
	w, err := comm.NewWorld(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		mk := func() *checkpoint[uint64] {
			ck := &checkpoint[uint64]{ops: u64}
			ck.primary = ckptShard[uint64]{Desc: ckptDesc{Step: StepLocalSort, Elems: 6}, Sorted: []uint64{1, 1, 2, 3, 5, 8}}
			sum, err := ck.shardSum(ck.primary, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			ck.primary.Desc.Sum = sum
			ck.sent = ckptShard[uint64]{Desc: ck.primary.Desc, Sorted: append([]uint64(nil), ck.primary.Sorted...)}
			return ck
		}

		// Corrupt primary, intact mirror: the restore must fall back and
		// deliver the original data.
		ck := mk()
		ck.primary.Sorted[2] ^= 1
		var sorted []uint64
		if err := ck.restore(c, Config{}, 0, &sorted, nil, nil, nil); err != nil {
			t.Fatalf("mirror fallback failed: %v", err)
		}
		if !reflect.DeepEqual(sorted, []uint64{1, 1, 2, 3, 5, 8}) {
			t.Fatalf("mirror fallback restored %v", sorted)
		}

		// Both replicas corrupt: typed error, no silent wrong data.
		ck = mk()
		ck.primary.Sorted[2] ^= 1
		ck.sent.Sorted[4] ^= 1
		if err := ck.restore(c, Config{}, 0, &sorted, nil, nil, nil); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("double corruption must surface ErrCheckpointCorrupt, got: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdoptAuditsResidentMirror pins the adoption audit on the resident
// path: an intact mirror is adopted as is, and a mirror that no longer
// matches its descriptor's checksum fails with ErrCheckpointCorrupt rather
// than feeding wrong data into the redo epoch.
func TestAdoptAuditsResidentMirror(t *testing.T) {
	ck := &checkpoint[uint64]{ops: u64, mirrorValid: true, mirrorWorld: 2}
	ck.mirror = ckptShard[uint64]{
		Desc:      ckptDesc{Step: StepSplitting, Elems: 4},
		Sorted:    []uint64{2, 7, 7, 9},
		Splitters: []uint64{5},
		Cuts:      []int{0, 2, 4},
	}
	sum, err := ck.shardSum(ck.mirror, ck.mirrorWorld, false)
	if err != nil {
		t.Fatal(err)
	}
	ck.mirror.Desc.Sum = sum
	got, err := ck.adopt()
	if err != nil {
		t.Fatalf("intact mirror: %v", err)
	}
	if !reflect.DeepEqual(got, []uint64{2, 7, 7, 9}) {
		t.Fatalf("adopted %v", got)
	}

	ck.mirror.Sorted[1] ^= 1 << 40
	if _, err := ck.adopt(); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt mirror: want ErrCheckpointCorrupt, got %v", err)
	}
}

// TestSortShrinkRMAExchange runs the shrink recovery with the one-sided
// put+notify exchange backend: the redo epoch re-creates windows on the
// shrunken communicator and the result is still loss-free.
func TestSortShrinkRMAExchange(t *testing.T) {
	const p, perRank = 8, 512
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 12, Span: 1e9}
	plan := fault.Plan{Seed: 6, Deaths: []fault.Death{{Rank: 4, Step: StepCuts}}}
	cfg := Config{Threads: 1, Recovery: RecoveryShrink, Exchange: comm.ExchangeRMAPut}

	ins, outs, _, _, _, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, ins, outs, false, 0)
}

// TestSortRMAUnderDrops is satellite (d): the one-sided exchange must ride
// the reliable transport under a seeded drop schedule at P=16 — output
// bit-identical to the fault-free one-sided run, with retries recorded.
func TestSortRMAUnderDrops(t *testing.T) {
	const p, perRank = 16, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 9, Span: 1e9}
	cfg := Config{Threads: 1, Exchange: comm.ExchangeRMAPut}
	plan := fault.Plan{Seed: 5, DropRate: 0.05}

	_, want := runSort(t, p, spec, perRank, cfg, model)
	ins, got, w, _ := runSortFaults(t, p, spec, perRank, cfg, model, plan)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("one-sided exchange under drops differs from the fault-free run")
	}
	if f := w.TotalStats().Fault; f.Drops == 0 || f.Retries != f.Drops {
		t.Errorf("drop schedule did not exercise the retry path: %+v", f)
	}
}
