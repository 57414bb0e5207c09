// Package hyksort implements a HykSort-style distributed sort (Sundar,
// Malhotra, Biros [20], discussed in §III-C): a generalization of hypercube
// quicksort that picks k-1 splitters per round, exchanges data among k
// process groups, and recurses on each group after an MPI communicator
// split.
//
// The paper's algorithm deliberately avoids this structure: "this comes
// along with a communicator split each iteration in the recursion tree.  In
// MPI this operation takes linear complexity to the communicator size and
// is a blocking collective operation among all processors" (§III-C).  This
// implementation exists to benchmark exactly that trade-off: every
// recursion level pays a Split on the live communicator.
package hyksort

import (
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
)

// Config tunes a HykSort run.
type Config struct {
	// K is the split arity per round (the k of [20]); 0 means 4.  Each
	// round partitions the group into min(K, group size) subgroups.
	K int
	// ForceUnique applies the duplicate-key transformation (see
	// core.Config.ForceUnique); off by default.
	ForceUnique bool
	// VirtualScale prices bulk data at a multiple of its real size.
	VirtualScale float64
	// Recorder receives phase timings.
	Recorder *metrics.Recorder
}

func (cfg Config) arity() int {
	if cfg.K < 2 {
		return 4
	}
	return cfg.K
}

func (cfg Config) scale() float64 {
	if cfg.VirtualScale < 1 {
		return 1
	}
	return cfg.VirtualScale
}

// Sort sorts the distributed sequence collectively and returns this rank's
// partition.  Balance is approximate: each recursion level assigns each
// subgroup its exact share of the remaining keys, but within a subgroup the
// per-rank distribution follows the exchange pattern rather than the input
// capacities.
func Sort[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	if !cfg.ForceUnique {
		return sortImpl[K](c, local, ops, cfg)
	}
	triples := keys.MakeUnique(local, c.Rank())
	out, err := sortImpl[keys.Triple[K]](c, triples, keys.NewTripleOps(ops), cfg)
	if err != nil {
		return nil, err
	}
	return keys.StripUnique(out), nil
}

func sortImpl[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	model := c.Model()
	rec := cfg.Recorder
	scale := cfg.scale()

	rec.Enter(metrics.LocalSort)
	sorted := make([]K, len(local))
	copy(sorted, local)
	sortutil.Sort(sorted, ops.Less)
	if model != nil {
		c.Clock().Advance(model.SortCost(int(float64(len(sorted)) * scale)))
	}

	group := c
	for group.Size() > 1 {
		p := group.Size()
		k := cfg.arity()
		if k > p {
			k = p
		}
		// Subgroup g spans group ranks [gStart(g), gStart(g+1)); sizes as
		// equal as possible.
		gSize := func(g int) int { return p/k + boolToInt(g < p%k) }
		gStart := make([]int, k+1)
		for g := 0; g < k; g++ {
			gStart[g+1] = gStart[g] + gSize(g)
		}

		// Determine k-1 splitters targeting each subgroup's share of the
		// current keys (HykSort uses sampled histogram probes; the exact
		// bisection keeps this baseline's balance honest so the
		// benchmark isolates the communicator-split cost).
		rec.Enter(metrics.Histogram)
		counts := comm.AllgatherOne(group, int64(len(sorted)))
		var total int64
		for _, n := range counts {
			total += n
		}
		targets := make([]int64, k-1)
		for g := 0; g < k-1; g++ {
			targets[g] = total * int64(gStart[g+1]) / int64(p)
		}
		splitters, _ := core.FindSplitters(group, sorted, ops, targets, 0, core.Config{Threads: 1, Recorder: rec})

		// Bucketize and exchange: bucket g goes to the member of
		// subgroup g with our intra-subgroup offset (wrapped).
		rec.Enter(metrics.Exchange)
		sendCounts := make([]int, p)
		prev := 0
		for g := 0; g < k; g++ {
			var cut int
			if g == k-1 {
				cut = len(sorted)
			} else {
				cut = sortutil.UpperBound(sorted, splitters[g], ops.Less)
				if cut < prev {
					cut = prev
				}
			}
			peer := gStart[g] + (group.Rank() % gSize(g))
			sendCounts[peer] += cut - prev
			prev = cut
		}
		if model != nil {
			c.Clock().Advance(model.SearchCost(len(sorted), k-1))
		}
		recv, recvCounts := comm.Alltoallv(group, sorted, sendCounts, scale)

		// Merge received runs to keep the invariant "local data sorted".
		rec.Enter(metrics.Merge)
		runs := make([][]K, 0, len(recvCounts))
		off := 0
		for _, n := range recvCounts {
			if n > 0 {
				runs = append(runs, recv[off:off+n])
			}
			off += n
		}
		sorted = sortutil.MergeKLoser(runs, ops.Less)
		if model != nil {
			c.Clock().Advance(model.MergeCost(int(float64(len(sorted))*scale), len(runs)))
		}

		// Recurse into this rank's subgroup — the communicator split the
		// paper's design avoids.
		rec.Enter(metrics.Other)
		myGroup := 0
		for g := 0; g < k; g++ {
			if group.Rank() >= gStart[g] && group.Rank() < gStart[g+1] {
				myGroup = g
			}
		}
		group = group.Split(myGroup, group.Rank())
	}
	rec.Finish()
	return sorted, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
