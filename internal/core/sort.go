package core

import (
	"errors"
	"fmt"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
)

// Sort sorts the distributed sequence whose local share on this rank is
// local, and returns this rank's partition of the globally sorted result.
// It must be called collectively by every rank of c with a consistent
// configuration.
//
// The output invariant (§I): each returned partition is sorted, no element
// on rank i orders after any element on rank i+1, and — with Epsilon == 0
// and the uniqueness transformation enabled — rank i holds exactly as many
// elements as it contributed (perfect partitioning).  The input slice is
// not modified.
//
// Duplicate keys need no special treatment: Algorithm 4's boundary
// refinement splits runs of equal keys across ranks exactly.  Set
// cfg.ForceUnique to additionally apply the (key, rank, index)
// transformation of §V-A.
func Sort[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	out, _, err := SortResilient(c, local, ops, cfg)
	return out, err
}

// SortResilient is Sort returning the effective communicator the result
// lives on.  Without shrink recovery that is c itself; with
// Config.Recovery == RecoveryShrink and a permanent rank death it is the
// shrunken survivor communicator — the one collective follow-ups
// (IsGloballySorted, further sorts) must run on.  A rank scheduled to die
// never returns at all; its goroutine exits inside the collective call.
func SortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, *comm.Comm, error) {
	if err := cfg.validate(); err != nil {
		return nil, c, err
	}
	if !cfg.ForceUnique {
		return sortResilient[K](c, local, ops, cfg)
	}
	triples := keys.MakeUnique(local, c.Rank())
	if m := c.Model(); m != nil {
		c.Clock().Advance(m.ScanCost(int(float64(len(local)) * cfg.scale())))
	}
	out, eff, err := sortResilient[keys.Triple[K]](c, triples, keys.NewTripleOps(ops), cfg)
	if err != nil {
		return nil, eff, err
	}
	return keys.StripUnique(out), eff, nil
}

// sortResilient dispatches between the plain run and the ULFM-style
// shrink-recovery loop: run the supersteps; if a typed failure (rank death
// or revocation) unwinds them, revoke → agree → shrink → adopt the dead
// predecessor's mirrored shard → redo on the survivors.
func sortResilient[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, *comm.Comm, error) {
	if c.FaultInjector() == nil || cfg.Recovery != RecoveryShrink {
		out, err := sortImpl[K](c, local, ops, cfg)
		return out, c, err
	}
	eff := c
	work := local
	for {
		var (
			out     []K
			sortErr error
			ck      *checkpoint[K]
		)
		// A failure surfaces either as the boundary detector's error return
		// (the deterministic path) or, for asynchronous detection deep in a
		// collective, as the typed panic Try converts.
		err := comm.Try(func() {
			ck = &checkpoint[K]{}
			out, sortErr = sortSteps[K](eff, work, ops, cfg, ck)
		})
		if err == nil {
			err = sortErr
		}
		if err == nil {
			return out, eff, nil
		}
		var fe *comm.FailureError
		if !errors.As(err, &fe) {
			return nil, eff, err
		}
		next, adopted, rerr := shrinkRecover[K](eff, ck, fe, cfg.Recorder)
		if rerr != nil {
			return nil, eff, rerr
		}
		if len(adopted) > 0 {
			merged := make([]K, 0, len(work)+len(adopted))
			merged = append(merged, work...)
			merged = append(merged, adopted...)
			work = merged
		}
		eff = next
	}
}

// shrinkRecover is one survivor's pass through the ULFM recipe after a
// failure unwound the supersteps: revoke the communicator so every peer
// unwinds too, agree on the survivor bitmap, audit that every victim's
// mirrored shard has a surviving holder, adopt the dead predecessor's
// shard, and shrink to the dense survivor communicator.  The whole pass is
// priced on the virtual clock and recorded as shrink time.  fe is the
// failure that unwound the supersteps; when it carries a boundary step, the
// suspicion fed to Agree is derived from the death schedule, giving every
// survivor an identical view even before the victims' registrations land.
// It returns the shrunken communicator and the elements adopted from the
// dead predecessor (nil when this rank adopted nothing).
func shrinkRecover[K any](eff *comm.Comm, ck *checkpoint[K], fe *comm.FailureError, rec *metrics.Recorder) (*comm.Comm, []K, error) {
	start := eff.Clock().Now()
	eff.Revoke()
	var suspect []bool
	if fe != nil && fe.Step > 0 {
		inj := eff.FaultInjector()
		suspect = make([]bool, eff.Size())
		for r := range suspect {
			suspect[r] = inj.DieAt(eff.WorldRankOf(r), fe.Step)
		}
	}
	alive, rounds := eff.Agree(suspect)
	rec.AddAgreeRounds(rounds)

	// Loss audit: a victim's shard survives only at its immediate ring
	// successor.  If that successor died at the same boundary, the sort
	// cannot be loss-free — fail with the typed error rather than return
	// a silently incomplete result.
	p := eff.Size()
	deadCount := 0
	for r, a := range alive {
		if a {
			continue
		}
		deadCount++
		if !alive[(r+1)%p] {
			return nil, nil, fmt.Errorf("%w: ranks %d and %d", ErrShardLost, r, (r+1)%p)
		}
	}
	if deadCount == 0 {
		return nil, nil, fmt.Errorf("core: rank %d: communicator revoked but no rank is registered dead", eff.Rank())
	}

	// Adopt the dead predecessor's mirrored snapshot.  The mirrored sorted
	// partition is invariant across the boundaries of one epoch (data only
	// moves in the exchange, after the last boundary), so any boundary's
	// mirror carries the victim's full pre-exchange data — adoption is
	// loss-free.
	var adopted []K
	prev := (eff.Rank() + p - 1) % p
	if !alive[prev] {
		if !ck.adoptable(prev) {
			return nil, nil, fmt.Errorf("%w: rank %d holds no mirror of dead rank %d", ErrShardLost, eff.Rank(), prev)
		}
		var aerr error
		adopted, aerr = ck.adopt()
		if aerr != nil {
			return nil, nil, aerr
		}
		rec.AddFaultSpan("recover", fmt.Sprintf("adopted %d mirrored elements of dead rank %d", len(adopted), prev), 0)
	}

	nc := eff.Shrink(alive)
	d := eff.Clock().Now() - start
	rec.AddShrink(d, nc.Size())
	rec.AddFaultSpan("recover", fmt.Sprintf("shrunk %d -> %d survivors", p, nc.Size()), d)
	return nc, adopted, nil
}

// sortImpl runs the supersteps with a run-local checkpoint store (the
// respawn recovery path; shrink recovery owns the store so it survives the
// unwind).
func sortImpl[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config) ([]K, error) {
	// Fault-injecting worlds checkpoint at every superstep boundary so a
	// crashed-and-respawned rank re-enters from its snapshot; ck stays nil
	// (and boundary a no-op) on the fault-free fast path.
	var ck *checkpoint[K]
	if c.FaultInjector() != nil {
		ck = &checkpoint[K]{}
	}
	return sortSteps[K](c, local, ops, cfg, ck)
}

// sortSteps runs the four supersteps of §V.  Only the Local Sort and the
// exchange branch on the partition's backing: a resident slice, or — for
// budgeted configurations — a sealed store run whose search supersteps go
// through a block cache.  The collective operations, their payload sizes
// and the cost-model calls are the same for both backings; the store is a
// host-side execution strategy the virtual clock never sees.
func sortSteps[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config, ck *checkpoint[K]) ([]K, error) {
	p := c.Size()
	rec := cfg.Recorder

	// Superstep 1: Local Sort.  Budgeted configurations spill
	// collectively: spillActive depends only on the shared Config and the
	// key type, so every rank agrees, keeping the fused exchange schedule
	// consistent.  The resident arena is this rank's scratch for the whole
	// run: the Local Merge superstep reuses the same buffers.
	rec.Enter(metrics.LocalSort)
	var (
		sorted []K
		part   *extPartition[K]
		plan   *spillPlan[K]
		ar     *sortutil.Arena[K]
	)
	if spillActive(cfg, ops) {
		plan = newSpillPlan(c, ops, cfg)
		var err error
		if part, err = extSortLocal(c, local, ops, cfg, plan); err != nil {
			return nil, err
		}
		defer part.Close()
	} else {
		ar = &sortutil.Arena[K]{}
		sorted = make([]K, len(local))
		copy(sorted, local)
		threads := cfg.threads()
		kernel, passes := LocalSortKernel(sorted, ops, cfg.Kernel, threads, ar)
		rec.SetLocalSort(kernel, threads)
		if model := c.Model(); model != nil {
			c.Clock().Advance(LocalSortCost(model, kernel, int(float64(len(sorted))*cfg.scale()), passes, threads))
		}
	}
	// source is the live partition; a crash restore may replace sorted.
	source := func() sortedSource[K] {
		if part != nil {
			return part
		}
		return memSource[K]{s: sorted, ops: ops}
	}
	if p == 1 {
		if part != nil {
			sorted = part.materialize()
		}
		rec.Finish()
		return sorted, nil
	}
	var splitters []K
	var cuts []int
	if err := ck.boundary(c, ops, cfg, StepLocalSort, &sorted, part, &splitters, &cuts); err != nil {
		return nil, err
	}

	// Superstep 2: Splitting.
	rec.Enter(metrics.Other)
	targets, tol := splitTargets(c, len(local), cfg.Epsilon)
	rec.Enter(metrics.Histogram)
	splitters, _ = findSplittersOn(c, source(), ops, targets, tol, cfg)
	if err := ck.boundary(c, ops, cfg, StepSplitting, &sorted, part, &splitters, &cuts); err != nil {
		return nil, err
	}

	// Superstep 3: Data Exchange (permutation matrix + ALLTOALLV, or the
	// fused 1-factor rounds into spilled receive runs).
	rec.Enter(metrics.Other)
	cuts = computeCutsOn(c, source(), ops, splitters, targets, cfg)
	if err := ck.boundary(c, ops, cfg, StepCuts, &sorted, part, &splitters, &cuts); err != nil {
		return nil, err
	}
	rec.Enter(metrics.Exchange)
	sendCounts := exchangeCounts(c, ops, cuts, cfg)
	var out []K
	if part != nil {
		var err error
		if out, err = spilledExchangeMerge(c, part, ops, sendCounts, cfg, plan); err != nil {
			return nil, err
		}
	} else {
		out = exchangeAndMerge(c, sorted, ops, sendCounts, cfg, ar) // enters Merge internally
	}
	if cfg.Rebalance {
		rec.Enter(metrics.Other)
		out = RebalanceOutput(c, out, ops, cfg)
	}
	rec.Finish()
	return out, nil
}

// IsGloballySorted verifies the output invariant collectively: every local
// partition is sorted and no element orders after the first element of the
// next non-empty rank.  The verdict is returned on every rank.  After a
// shrink recovery, run it on the effective communicator SortResilient
// returned.
func IsGloballySorted[K any](c *comm.Comm, local []K, ops keys.Ops[K]) bool {
	ok := sortutil.IsSorted(local, ops.Less)
	// Share boundary elements: every rank publishes (has, first, last).
	type boundary struct {
		Has         bool
		First, Last K
	}
	b := boundary{Has: len(local) > 0}
	if b.Has {
		b.First, b.Last = local[0], local[len(local)-1]
	}
	all := comm.AllgatherOne(c, b)
	var prev *K
	for i := range all {
		if !all[i].Has {
			continue
		}
		if prev != nil && ops.Less(all[i].First, *prev) {
			ok = false
		}
		last := all[i].Last
		prev = &last
	}
	return comm.AllreduceOne(c, ok, func(a, b bool) bool { return a && b })
}
