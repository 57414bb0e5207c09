package dhsort

import (
	"math"
	"sort"
	"sync"
	"testing"

	"dhsort/internal/workload"
)

func TestPublicSortQuickstart(t *testing.T) {
	const p, perRank = 8, 500
	outs := make([][]uint64, p)
	var mu sync.Mutex
	err := Run(p, nil, func(c *Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 1, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), perRank)
		sorted, err := Sort(c, local, Uint64Ops, Config{})
		if err != nil {
			return err
		}
		if len(sorted) != perRank {
			t.Errorf("rank %d: perfect partitioning violated (%d)", c.Rank(), len(sorted))
		}
		if !IsGloballySorted(c, sorted, Uint64Ops) {
			t.Errorf("rank %d: output not globally sorted", c.Rank())
		}
		mu.Lock()
		outs[c.Rank()] = sorted
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicNthElement(t *testing.T) {
	const p, perRank = 5, 800
	var all []float64
	locals := make([][]float64, p)
	for r := 0; r < p; r++ {
		spec := workload.Spec{Dist: workload.Normal, Seed: 2, Span: 1e9}
		raw, _ := spec.Rank(r, perRank)
		for _, k := range raw {
			locals[r] = append(locals[r], (float64(k)/math.MaxUint64-0.5)*2e6)
		}
		all = append(all, locals[r]...)
	}
	sort.Float64s(all)
	k := int64(len(all) / 2)
	err := Run(p, nil, func(c *Comm) error {
		got, err := NthElement(c, locals[c.Rank()], k, Float64Ops)
		if err != nil {
			return err
		}
		if got != all[k] {
			t.Errorf("rank %d: median %v, want %v", c.Rank(), got, all[k])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicRunTimedVirtual(t *testing.T) {
	model := SuperMUCModel(16, true)
	d, err := RunTimed(32, model, func(c *Comm) error {
		spec := workload.Spec{Dist: workload.Uniform, Seed: 3, Span: 1e9}
		local, _ := spec.Rank(c.Rank(), 200)
		_, err := Sort(c, local, Uint64Ops, Config{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("virtual makespan must be positive")
	}
}

func TestPublicRunPropagatesErrors(t *testing.T) {
	if err := Run(0, nil, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("invalid world size must error")
	}
}

func TestPublicInt64AndFloat32Ops(t *testing.T) {
	err := Run(4, nil, func(c *Comm) error {
		localI := []int64{int64(c.Rank()) - 2, int64(c.Rank()) * 7}
		outI, err := Sort(c, localI, Int64Ops, Config{})
		if err != nil {
			return err
		}
		if !IsGloballySorted(c, outI, Int64Ops) {
			t.Error("int64 sort failed")
		}
		localF := []float32{float32(c.Rank()) - 1.5, float32(c.Rank()) * 2}
		outF, err := Sort(c, localF, Float32Ops, Config{})
		if err != nil {
			return err
		}
		if !IsGloballySorted(c, outF, Float32Ops) {
			t.Error("float32 sort failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
