package comm

import (
	"fmt"
	"testing"

	"dhsort/internal/simnet"
)

func TestOneFactorPartnerIsMatching(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8, 9, 16, 17} {
		rounds := p
		if p%2 == 0 {
			rounds = p - 1
		}
		met := make([]map[int]bool, p)
		for i := range met {
			met[i] = map[int]bool{}
		}
		for r := 0; r < rounds; r++ {
			for rank := 0; rank < p; rank++ {
				j := OneFactorPartner(p, r, rank)
				if j == rank {
					t.Fatalf("p=%d r=%d: rank %d paired with itself", p, r, rank)
				}
				if j < 0 {
					if p%2 == 0 {
						t.Fatalf("p=%d r=%d: rank %d idle in even p", p, r, rank)
					}
					continue
				}
				// Symmetry: the partner must agree.
				if back := OneFactorPartner(p, r, j); back != rank {
					t.Fatalf("p=%d r=%d: %d->%d but %d->%d", p, r, rank, j, j, back)
				}
				if met[rank][j] {
					t.Fatalf("p=%d: pair (%d,%d) scheduled twice", p, rank, j)
				}
				met[rank][j] = true
			}
		}
		// Every pair must have met exactly once.
		for i := 0; i < p; i++ {
			if len(met[i]) != p-1 {
				t.Fatalf("p=%d: rank %d met %d partners, want %d", p, i, len(met[i]), p-1)
			}
		}
	}
}

func testAlltoallAlg(t *testing.T, alg AlltoallAlgorithm) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		run(t, p, func(c *Comm) error {
			blocks := make([][]int, p)
			for dst := range blocks {
				// Variable sizes incl. empty blocks.
				n := (c.Rank() + dst) % 4
				blk := make([]int, n)
				for k := range blk {
					blk[k] = c.Rank()*10000 + dst*100 + k
				}
				blocks[dst] = blk
			}
			got := AlltoallWith(c, blocks, alg, 1)
			for src := range got {
				want := (src + c.Rank()) % 4
				if len(got[src]) != want {
					t.Errorf("alg=%v p=%d rank=%d: from %d got %d elems, want %d",
						alg, p, c.Rank(), src, len(got[src]), want)
					continue
				}
				for k, v := range got[src] {
					if v != src*10000+c.Rank()*100+k {
						t.Errorf("alg=%v p=%d rank=%d: wrong value from %d", alg, p, c.Rank(), src)
					}
				}
			}
			return nil
		})
	}
}

func TestAlltoallAlgorithms(t *testing.T) {
	for _, alg := range []AlltoallAlgorithm{AlltoallAuto, AlltoallPairwise, AlltoallOneFactor, AlltoallBruck} {
		t.Run(alg.String(), func(t *testing.T) { testAlltoallAlg(t, alg) })
	}
}

func TestAlltoallAlgorithmString(t *testing.T) {
	names := map[AlltoallAlgorithm]string{
		AlltoallAuto: "auto", AlltoallPairwise: "pairwise",
		AlltoallOneFactor: "one-factor", AlltoallBruck: "bruck",
		AlltoallAlgorithm(9): "AlltoallAlgorithm(9)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
	}
}

func TestBruckLowerLatencyForSmallBlocks(t *testing.T) {
	// Store-and-forward wins the latency game for tiny blocks: with P
	// ranks, pairwise pays P α-latencies per rank while Bruck pays
	// ceil(log2 P); the virtual makespan must reflect that.
	const p = 32
	mk := func(alg AlltoallAlgorithm) int64 {
		w, _ := NewWorld(p, simnet.SuperMUC(16, true))
		err := w.Run(func(c *Comm) error {
			blocks := make([][]int64, p)
			for i := range blocks {
				blocks[i] = []int64{int64(i)}
			}
			AlltoallWith(c, blocks, alg, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	if b, pw := mk(AlltoallBruck), mk(AlltoallPairwise); b >= pw {
		t.Errorf("bruck (%d ns) should beat pairwise (%d ns) on tiny blocks", b, pw)
	}
}

func TestPairwiseLowerVolumeForLargeBlocks(t *testing.T) {
	// For large blocks Bruck's log-hop forwarding costs extra volume; the
	// direct schedules must win.
	const p = 16
	mk := func(alg AlltoallAlgorithm) int64 {
		w, _ := NewWorld(p, simnet.SuperMUC(16, true))
		err := w.Run(func(c *Comm) error {
			blocks := make([][]int64, p)
			for i := range blocks {
				blocks[i] = make([]int64, 4096)
			}
			AlltoallWith(c, blocks, alg, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(w.Makespan())
	}
	if of, br := mk(AlltoallOneFactor), mk(AlltoallBruck); of >= br {
		t.Errorf("one-factor (%d ns) should beat bruck (%d ns) on large blocks", of, br)
	}
}

func TestAlltoallAutoMatchesManual(t *testing.T) {
	// Auto must produce the same data as any manual algorithm.
	run(t, 6, func(c *Comm) error {
		blocks := make([][]string, 6)
		for d := range blocks {
			blocks[d] = []string{fmt.Sprintf("%d->%d", c.Rank(), d)}
		}
		got := AlltoallWith(c, blocks, AlltoallAuto, 1)
		for src := range got {
			if got[src][0] != fmt.Sprintf("%d->%d", src, c.Rank()) {
				t.Errorf("wrong payload from %d: %q", src, got[src][0])
			}
		}
		return nil
	})
}
