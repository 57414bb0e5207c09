package bench

import (
	"fmt"
	"sync"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/simnet"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// runOnceResilient is runOnceFaults for schedules with permanent rank
// deaths: the sort runs through SortResilient under the given recovery
// mode, recorders are registered before sorting (a victim never returns,
// but its fault tallies must survive), and the output invariant is
// verified on the effective communicator the result lives on.  alg selects
// the resilient sorter ("dhsort" or "hss" — the only ones with a shrink
// path).
func runOnceResilient(alg string, p, perRank int, model *simnet.CostModel, scale float64, spec workload.Spec, plan fault.Plan, recovery string, threads int) (point, error) {
	w, err := comm.NewWorldWithFaults(p, model, plan)
	if err != nil {
		return point{}, err
	}
	recs := make([]*metrics.Recorder, p)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		local, err := spec.Rank(c.Rank(), perRank)
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		var out []uint64
		eff := c
		switch alg {
		case "dhsort":
			out, eff, err = core.SortResilient(c, local, keys.Uint64{}, core.Config{
				VirtualScale: scale, Threads: threads, Recorder: rec, Recovery: recovery,
			})
		case "hss":
			out, eff, err = core.SortResilient(c, local, keys.Uint64{}, core.Config{
				Splitter: core.SplitSampled, Seed: spec.Seed,
				VirtualScale: scale, Threads: threads, Recorder: rec, Recovery: recovery,
			})
		default:
			return fmt.Errorf("no resilient path for algorithm %q", alg)
		}
		if err != nil {
			return err
		}
		rec.Finish()
		rec.SetElements(len(local), len(out))
		if !core.IsGloballySorted(eff, out, keys.Uint64{}) {
			return fmt.Errorf("%s produced an unsorted result", alg)
		}
		return nil
	})
	if err != nil {
		return point{}, err
	}
	return point{Makespan: w.Makespan(), Phases: metrics.Summarize(recs)}, nil
}

// measurePointResilient is measurePoint through the resilient runner; the
// record carries the recovery mode it ran under.
func measurePointResilient(alg string, p, perRank int, model *simnet.CostModel, spec workload.Spec, reps int, plan fault.Plan, recovery string, threads int) (metrics.Record, error) {
	makespans := make([]time.Duration, 0, reps)
	var summary metrics.Summary
	for rep := 0; rep < reps; rep++ {
		sp := spec
		sp.Seed = spec.Seed + uint64(rep)*1000003
		pt, err := runOnceResilient(alg, p, perRank, model, 1, sp, plan, recovery, threads)
		if err != nil {
			return metrics.Record{}, err
		}
		makespans = append(makespans, pt.Makespan)
		if rep == 0 {
			summary = pt.Phases
		}
	}
	rec := metrics.NewRecord(alg, p, perRank, string(spec.Dist), makespans, summary)
	rec.Recovery = recovery
	return rec, nil
}

// ShrinkStudy is an EXTENSION, not a paper figure: the graceful-degradation
// comparison of the two recovery mechanisms.  Crash schedules respawn from
// superstep checkpoints and finish on all P ranks; death schedules revoke,
// agree, adopt the victim's ring-mirrored shard and finish on the
// survivors.  Every row verifies the sorted-output invariant on the
// communicator the result lives on — degradation costs time and (for
// shrink) ranks, never correctness.
func ShrinkStudy(o Options) error {
	p, perRank := 16, 4096
	if o.Full {
		p, perRank = 64, 16384
	}
	model := simnet.SuperMUC(suiteRanksPerNode, true)
	spec := workload.Spec{Dist: workload.Uniform, Seed: o.Seed, Span: 1e9}

	type cfgRow struct {
		label    string
		recovery string
		plan     fault.Plan
	}
	rows := []cfgRow{
		{"fault-free", core.RecoveryRespawn, fault.Plan{}},
		{"crash x1 (respawn)", core.RecoveryRespawn, fault.Plan{Seed: o.Seed,
			Crashes: []fault.Crash{{Rank: p / 3, Step: core.StepSplitting}}}},
		{"crash x2 (respawn)", core.RecoveryRespawn, fault.Plan{Seed: o.Seed,
			Crashes: []fault.Crash{{Rank: p / 3, Step: core.StepSplitting}, {Rank: 2 * p / 3, Step: core.StepCuts}}}},
		{"die x1 (shrink)", core.RecoveryShrink, fault.Plan{Seed: o.Seed,
			Deaths: []fault.Death{{Rank: p / 3, Step: core.StepLocalSort}}}},
		{"die x2 (shrink)", core.RecoveryShrink, fault.Plan{Seed: o.Seed,
			Deaths: []fault.Death{{Rank: p / 3, Step: core.StepLocalSort}, {Rank: 2 * p / 3, Step: core.StepSplitting}}}},
		{"die x1 + drop=0.02 (shrink)", core.RecoveryShrink, fault.Plan{Seed: o.Seed, DropRate: 0.02,
			Deaths: []fault.Death{{Rank: p / 3, Step: core.StepLocalSort}}}},
	}

	fmt.Fprintf(o.Out, "graceful degradation — dhsort, p=%d, %d keys/rank, uniform (modelled SuperMUC time; extension, no paper figure)\n", p, perRank)
	fmt.Fprintf(o.Out, "%-28s %12s %9s %7s %7s %10s %10s\n",
		"schedule", "makespan", "overhead", "deaths", "agree", "shrink", "survivors")

	var base time.Duration
	for _, r := range rows {
		runs := make([]time.Duration, 0, o.reps())
		var sum metrics.Summary
		for rep := 0; rep < o.reps(); rep++ {
			sp := spec
			sp.Seed = spec.Seed + uint64(rep)*1000003
			pt, err := runOnceResilient("dhsort", p, perRank, model, 1, sp, r.plan, r.recovery, o.threads())
			if err != nil {
				return fmt.Errorf("schedule %q: %w", r.label, err)
			}
			runs = append(runs, pt.Makespan)
			if rep == 0 {
				sum = pt.Phases
			}
		}
		m := stats.Summarize(runs)
		if base == 0 {
			base = m.Median
		}
		overhead := 100 * (float64(m.Median)/float64(base) - 1)
		survivors := p
		if sum.Survivors > 0 {
			survivors = sum.Survivors
		}
		fmt.Fprintf(o.Out, "%-28s %12v %+8.1f%% %7d %7d %10v %10d\n",
			r.label, m.Median.Round(time.Microsecond), overhead,
			sum.Fault.Deaths, sum.Fault.AgreeRounds,
			time.Duration(sum.Fault.ShrinkNS).Round(time.Microsecond), survivors)
	}
	return nil
}
