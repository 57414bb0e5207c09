package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/fault"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/store"
	"dhsort/internal/workload"
)

// spillBudget returns a MemBudget of roughly 1/eighth of a rank's input
// volume, the acceptance geometry: the local sort must spill about eight
// runs per rank.
func spillBudget(perRank int) int64 {
	return int64(perRank) * 8 / 8
}

// runSortClocked is runSort additionally returning each rank's final virtual
// clock and its recorder, for cross-backing identity assertions.
func runSortClocked(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel) (ins, outs [][]uint64, clocks []time.Duration, recs []*metrics.Recorder) {
	t.Helper()
	w, err := comm.NewWorld(p, model)
	if err != nil {
		t.Fatal(err)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	clocks = make([]time.Duration, p)
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
		clocks[c.Rank()] = c.Clock().Now()
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs, clocks, recs
}

// TestSpilledSortMatchesResident is the out-of-core acceptance test: a P=16
// sort whose MemBudget is an eighth of each rank's input must complete from
// disk runs with output bit-identical to the in-memory run at identical
// parameters, with either splitter finder.
func TestSpilledSortMatchesResident(t *testing.T) {
	forEachFinder(t, Config{Threads: 1}, testSpilledSortMatchesResident)
}

func testSpilledSortMatchesResident(t *testing.T, resident Config) {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}

	_, want := runSort(t, p, spec, perRank, resident, model)
	cfg := resident
	cfg.MemBudget, cfg.SpillDir = spillBudget(perRank), t.TempDir()
	ins, got, _, recs := runSortClocked(t, p, spec, perRank, cfg, model)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("spilled run's output differs from the in-memory run")
	}
	s := metrics.Summarize(recs)
	if s.SpilledRuns == 0 || s.SpillBytes == 0 {
		t.Fatalf("budget of %d bytes produced no spilled runs: %+v", cfg.MemBudget, s)
	}
	// Eight-ish local-sort runs per rank, plus the merged partition and the
	// exchange runs: the counter must at least cover the local-sort runs.
	if s.SpilledRuns < int64(p*8) {
		t.Errorf("expected at least %d spilled runs across %d ranks, got %d", p*8, p, s.SpilledRuns)
	}
}

// TestSpilledSortBackingIndependence pins the storage plane's core claim:
// the same budgeted sort over a memory-backed and a filesystem-backed store
// is bit-identical in output and in every rank's virtual clock.
func TestSpilledSortBackingIndependence(t *testing.T) {
	const p, perRank = 8, 1536
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Zipf, Seed: 11, Span: 1e9}
	base := Config{Threads: 1, MemBudget: spillBudget(perRank)}

	memCfg := base
	memCfg.Store = store.NewMem()
	_, memOut, memClocks, _ := runSortClocked(t, p, spec, perRank, memCfg, model)

	fsCfg := base
	fsCfg.SpillDir = t.TempDir()
	ins, fsOut, fsClocks, _ := runSortClocked(t, p, spec, perRank, fsCfg, model)

	checkSorted(t, ins, fsOut, true, 0)
	if !reflect.DeepEqual(memOut, fsOut) {
		t.Fatal("memory- and filesystem-backed runs produced different output")
	}
	if !reflect.DeepEqual(memClocks, fsClocks) {
		t.Fatalf("virtual clocks diverged across backings:\n mem: %v\n  fs: %v", memClocks, fsClocks)
	}
}

// TestSpilledSortPrivateMemStore runs the budgeted path with no shared store
// configured: spill runs land in a run-private in-memory store and the
// output still matches the resident run.
func TestSpilledSortPrivateMemStore(t *testing.T) {
	const p, perRank = 5, 700
	spec := workload.Spec{Dist: workload.Normal, Seed: 21, Span: 1e9}
	_, want := runSort(t, p, spec, perRank, Config{}, nil)
	ins, got := runSort(t, p, spec, perRank, Config{MemBudget: spillBudget(perRank)}, nil)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("private-store spilled run's output differs from the in-memory run")
	}
}

// TestSpilledSortFanIn exercises the multi-pass merge: fan-in 2 over eight
// runs forces reduction passes, and the output must not change.
func TestSpilledSortFanIn(t *testing.T) {
	const p, perRank = 4, 1024
	spec := workload.Spec{Dist: workload.Uniform, Seed: 8, Span: 1e9}
	_, want := runSort(t, p, spec, perRank, Config{}, nil)
	cfg := Config{MemBudget: spillBudget(perRank), SpillFanIn: 2, SpillDir: t.TempDir()}
	ins, got := runSort(t, p, spec, perRank, cfg, nil)
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fan-in-2 spilled run's output differs from the in-memory run")
	}
}

// TestSpilledSortLossyKeysStayResident pins the eligibility rule: keys whose
// embedding is not lossless ignore the budget and sort resident.
func TestSpilledSortLossyKeysStayResident(t *testing.T) {
	const p, perRank = 3, 400
	w, err := comm.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	sops := keys.String{}
	recs := make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: uint64(c.Rank() + 1), Span: 1e9}
		nums, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		local := make([]string, len(nums))
		for i, v := range nums {
			local[i] = fmt.Sprintf("%016x", v)
		}
		rec := metrics.ForComm(c)
		out, err := Sort(c, local, sops, Config{MemBudget: 64, Recorder: rec})
		if err != nil {
			return err
		}
		if len(out) == 0 && perRank > 0 && c.Size() == 1 {
			t.Error("empty output")
		}
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := metrics.Summarize(recs)
	if s.SpilledRuns != 0 || s.SpillBytes != 0 {
		t.Fatalf("string keys must not spill, got %d runs / %d bytes", s.SpilledRuns, s.SpillBytes)
	}
}

// TestSpillConfigValidation pins the configuration surface: negative
// budgets, degenerate fan-ins, and shrink recovery without a shared store
// are rejected before any rank runs.
func TestSpillConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative budget", Config{MemBudget: -1}},
		{"fan-in one", Config{SpillFanIn: 1}},
		{"shrink without shared store", Config{MemBudget: 1 << 20, Recovery: RecoveryShrink}},
	} {
		if err := tc.cfg.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, tc.cfg)
		}
	}
	ok := Config{MemBudget: 1 << 20, Recovery: RecoveryShrink, SpillDir: "/tmp/x"}
	if err := ok.validate(); err != nil {
		t.Errorf("shrink with SpillDir rejected: %v", err)
	}
}

// TestSpilledSortDieShrink is the die-shrink acceptance leg: a budgeted P=16
// sort with a permanent death must recover by adopting the victim's durable
// shard from the shared store and finish loss-free on the survivors.
func TestSpilledSortDieShrink(t *testing.T) {
	const p, perRank = 16, 2048
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 3, Step: StepSplitting}}}
	cfg := Config{
		Threads:   1,
		Recovery:  RecoveryShrink,
		MemBudget: spillBudget(perRank),
		SpillDir:  t.TempDir(),
	}

	ins, outs, _, recs, effSizes, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	if outs[3] != nil {
		t.Error("dead rank 3 produced output")
	}
	for r, sz := range effSizes {
		if r != 3 && sz != p-1 {
			t.Errorf("rank %d finished on a communicator of size %d, want %d", r, sz, p-1)
		}
	}
	checkSorted(t, ins, outs, false, 0)
	s := metrics.Summarize(recs)
	if s.Fault.Deaths != 1 {
		t.Errorf("1 death scheduled, %d recorded", s.Fault.Deaths)
	}
	if s.SpilledRuns == 0 {
		t.Error("die-shrink run recorded no spilled runs")
	}
}

// corruptStore wraps a filesystem store and corrupts targeted runs the
// moment they seal — truncation chops the tail (caught by the size audit at
// open), a bit flip rots one record byte (caught by the footer checksum at
// sequential-read completion).
type corruptStore struct {
	store.Store
	dir     string
	targets map[string]string // run name -> "truncate" | "bitflip"
}

func (cs corruptStore) Create(name string) (store.Writer, error) {
	w, err := cs.Store.Create(name)
	if err != nil {
		return nil, err
	}
	if kind, ok := cs.targets[name]; ok {
		return corruptWriter{Writer: w, path: filepath.Join(cs.dir, filepath.FromSlash(name)+".run"), kind: kind}, nil
	}
	return w, nil
}

type corruptWriter struct {
	store.Writer
	path, kind string
}

func (cw corruptWriter) Close() error {
	if err := cw.Writer.Close(); err != nil {
		return err
	}
	switch cw.kind {
	case "truncate":
		st, err := os.Stat(cw.path)
		if err != nil {
			return err
		}
		return os.Truncate(cw.path, st.Size()-32)
	case "bitflip":
		b, err := os.ReadFile(cw.path)
		if err != nil {
			return err
		}
		b[len(b)/3] ^= 0x40
		return os.WriteFile(cw.path, b, 0o644)
	}
	return nil
}

// runSortErr is runSort returning the world error instead of fataling, for
// corruption tests that expect typed failures.
func runSortErr(t *testing.T, p int, spec workload.Spec, perRank int, cfg Config, model *simnet.CostModel, plan fault.Plan) (ins, outs [][]uint64, err error) {
	t.Helper()
	w, werr := comm.NewWorldWithFaults(p, model, plan)
	if werr != nil {
		t.Fatal(werr)
	}
	ins = make([][]uint64, p)
	outs = make([][]uint64, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, lerr := spec.Rank(c.Rank(), perRank)
		if lerr != nil {
			return lerr
		}
		out, serr := Sort(c, local, u64, cfg)
		if serr != nil {
			return serr
		}
		mu.Lock()
		ins[c.Rank()] = local
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	return ins, outs, err
}

// TestDurableCheckpointCorruption drives the crash-restore audit of the
// durable checkpoint through every outcome. Durable checkpoints are the
// spilled path's: each snapshot copy's sorted section is a store run copied
// from the partition run. A truncated primary falls back to the replica, a
// bit-flipped primary falls back to the replica, and with both copies
// corrupt the sort surfaces ErrCheckpointCorrupt — never a panic or a
// mis-sort.
func TestDurableCheckpointCorruption(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Crashes: []fault.Crash{{Rank: 2, Step: StepSplitting}}}
	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, model)

	prim := ckptRun(2, StepSplitting, false)
	repl := ckptRun(2, StepSplitting, true)
	spilled := func(targets map[string]string) Config {
		dir := t.TempDir()
		return Config{
			Threads:   1,
			MemBudget: spillBudget(perRank),
			Store:     corruptStore{Store: store.NewFS(dir), dir: dir, targets: targets},
		}
	}
	for _, tc := range []struct {
		name    string
		targets map[string]string
	}{
		{"truncated primary", map[string]string{prim: "truncate"}},
		{"bit-flipped primary", map[string]string{prim: "bitflip"}},
	} {
		ins, got, err := runSortErr(t, p, spec, perRank, spilled(tc.targets), model, plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSorted(t, ins, got, true, 0)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: replica-restored output differs from the fault-free run", tc.name)
		}
	}

	_, _, err := runSortErr(t, p, spec, perRank, spilled(map[string]string{prim: "truncate", repl: "bitflip"}), model, plan)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("both copies corrupt: want ErrCheckpointCorrupt, got %v", err)
	}
}

// TestSpilledCheckpointCorruption is the same audit at the Local Sort
// boundary, where the primary shard is a copy of the partition run and
// restore repoints the partition at the surviving copy.
func TestSpilledCheckpointCorruption(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 5, Span: 1e9}
	plan := fault.Plan{Seed: 9, Crashes: []fault.Crash{{Rank: 3, Step: StepLocalSort}}}
	_, want := runSort(t, p, spec, perRank, Config{Threads: 1}, model)

	dir := t.TempDir()
	cfg := Config{
		Threads:   1,
		MemBudget: spillBudget(perRank),
		Store:     corruptStore{Store: store.NewFS(dir), dir: dir, targets: map[string]string{ckptRun(3, StepLocalSort, false): "truncate"}},
		SpillDir:  dir,
	}
	ins, got, err := runSortErr(t, p, spec, perRank, cfg, model, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, ins, got, true, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("spilled replica-restored output differs from the in-memory fault-free run")
	}
}

// TestSpilledAdoptionAudit drives the shrink adoption audit on the
// external-memory path: with the victim's primary run bit-flipped the
// survivor adopts from the replica run and the output matches the
// uncorrupted die-shrink run; with both copies corrupt the sort fails with
// ErrCheckpointCorrupt.
func TestSpilledAdoptionAudit(t *testing.T) {
	const p, perRank = 8, 1024
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
	plan := fault.Plan{Seed: 7, Deaths: []fault.Death{{Rank: 3, Step: StepSplitting}}}
	run := func(targets map[string]string) ([][]uint64, error) {
		dir := t.TempDir()
		cfg := Config{
			Threads:   1,
			Recovery:  RecoveryShrink,
			MemBudget: spillBudget(perRank),
			Store:     corruptStore{Store: store.NewFS(dir), dir: dir, targets: targets},
		}
		_, outs, _, _, _, err := runSortShrink(t, p, spec, perRank, cfg, model, plan)
		return outs, err
	}

	want, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(map[string]string{ckptRun(3, StepSplitting, false): "bitflip"})
	if err != nil {
		t.Fatalf("bit-flipped primary: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replica-adopted output differs from the uncorrupted die-shrink run")
	}

	_, err = run(map[string]string{
		ckptRun(3, StepSplitting, false): "bitflip",
		ckptRun(3, StepSplitting, true):  "truncate",
	})
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("both copies corrupt: want ErrCheckpointCorrupt, got %v", err)
	}
}
