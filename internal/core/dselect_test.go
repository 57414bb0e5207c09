package core

import (
	"sort"
	"testing"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

// runDSelect executes DSelect for rank k over the workload and checks every
// rank receives the oracle value.
func runDSelect(t *testing.T, p, perRank int, spec workload.Spec, ks []int64) {
	t.Helper()
	// Build the oracle.
	var all []uint64
	locals := make([][]uint64, p)
	for r := 0; r < p; r++ {
		l, err := spec.Rank(r, perRank)
		if err != nil {
			t.Fatal(err)
		}
		locals[r] = l
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	for _, k := range ks {
		if k < 0 || k >= int64(len(all)) {
			continue
		}
		want := all[k]
		w, _ := comm.NewWorld(p, nil)
		err := w.Run(func(c *comm.Comm) error {
			got, err := DSelect(c, locals[c.Rank()], k, u64, Config{})
			if err != nil {
				return err
			}
			if got != want {
				t.Errorf("p=%d k=%d rank=%d: got %d, want %d", p, k, c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDSelectBasic(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 17, Span: 1e9}
	runDSelect(t, 4, 500, spec, []int64{0, 1, 999, 1000, 1999})
}

func TestDSelectMedian(t *testing.T) {
	// The k-way selection use case of §II: find the global median.
	spec := workload.Spec{Dist: workload.Normal, Seed: 18, Span: 1e9}
	runDSelect(t, 7, 300, spec, []int64{7 * 300 / 2})
}

func TestDSelectLargeEnoughToIterate(t *testing.T) {
	// Total must exceed the sequential cutoff so the weighted-median loop
	// actually runs several rounds.
	spec := workload.Spec{Dist: workload.Zipf, Seed: 19, Span: 1e9}
	runDSelect(t, 8, 2000, spec, []int64{0, 4000, 8000, 15999})
}

func TestDSelectSparse(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 20, Span: 1e9, Sparse: 2}
	runDSelect(t, 6, 1500, spec, []int64{0, 2000, 4499})
}

func TestDSelectDuplicates(t *testing.T) {
	spec := workload.Spec{Dist: workload.DuplicateHeavy, Seed: 21, Span: 1e9}
	runDSelect(t, 5, 1000, spec, []int64{0, 2500, 4999})
}

func TestDSelectAllEqual(t *testing.T) {
	spec := workload.Spec{Dist: workload.AllEqual, Seed: 22, Span: 1e9}
	runDSelect(t, 4, 800, spec, []int64{0, 1600, 3199})
}

func TestDSelectSingleRank(t *testing.T) {
	spec := workload.Spec{Dist: workload.Uniform, Seed: 23, Span: 1e9}
	runDSelect(t, 1, 3000, spec, []int64{0, 1500, 2999})
}

func TestDSelectOutOfRange(t *testing.T) {
	w, _ := comm.NewWorld(2, nil)
	err := w.Run(func(c *comm.Comm) error {
		_, err := DSelect(c, []uint64{1, 2}, 4, u64, Config{})
		if err == nil {
			t.Error("expected out-of-range error")
		}
		_, err = DSelect(c, []uint64{1, 2}, -1, u64, Config{})
		if err == nil {
			t.Error("expected out-of-range error for negative k")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDSelectDoesNotModifyInput(t *testing.T) {
	w, _ := comm.NewWorld(3, nil)
	err := w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 9, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), 1200)
		snapshot := append([]uint64(nil), local...)
		if _, err := DSelect(c, local, 1800, u64, Config{}); err != nil {
			return err
		}
		for i := range local {
			if local[i] != snapshot[i] {
				t.Errorf("input modified at %d", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDSelectUnderCostModel(t *testing.T) {
	model := simnet.SuperMUC(4, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: 29, Span: 1e9}
	locals := make([][]uint64, 8)
	var all []uint64
	for r := range locals {
		locals[r], _ = spec.Rank(r, 1000)
		all = append(all, locals[r]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	w, _ := comm.NewWorld(8, model)
	err := w.Run(func(c *comm.Comm) error {
		got, err := DSelect(c, locals[c.Rank()], 4000, u64, Config{})
		if err != nil {
			return err
		}
		if got != all[4000] {
			t.Errorf("got %d, want %d", got, all[4000])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Makespan() <= 0 {
		t.Fatal("virtual time must advance")
	}
}

func TestDSelectFloatKeys(t *testing.T) {
	p := 4
	locals := make([][]float64, p)
	var all []float64
	for r := 0; r < p; r++ {
		spec := workload.Spec{Dist: workload.Normal, Seed: 31, Span: 1e9}
		raw, _ := spec.Rank(r, 900)
		locals[r] = floatKeys(raw)
		all = append(all, locals[r]...)
	}
	sort.Float64s(all)
	w, _ := comm.NewWorld(p, nil)
	err := w.Run(func(c *comm.Comm) error {
		got, err := DSelect(c, locals[c.Rank()], 1800, keys.Float64{}, Config{})
		if err != nil {
			return err
		}
		if got != all[1800] {
			t.Errorf("got %v, want %v", got, all[1800])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
