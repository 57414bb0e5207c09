// Package bench regenerates every table and figure of the paper's
// evaluation (§VI).  Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md records the expected shapes and the
// paper-vs-measured comparison.
//
// Scaling experiments run under the simnet virtual clock: the algorithms
// execute for real (data moves, histograms iterate, results are verified)
// on reduced element counts, while Config.VirtualScale prices the bulk
// phases at the paper's data volumes.  Reported times are therefore modeled
// SuperMUC times, expected to match the paper in *shape*, not in absolute
// microseconds.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dhsort/internal/bitonic"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/hyksort"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/samplesort"
	"dhsort/internal/simnet"
	"dhsort/internal/stats"
	"dhsort/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the experiment's table.
	Out io.Writer
	// Reps is the number of repetitions per point (different workload
	// seeds); 0 means 3.  The paper uses 10.
	Reps int
	// Full selects the paper-scale parameter sweep; the default is a
	// reduced sweep that finishes in a few minutes.
	Full bool
	// Seed is the base workload seed.
	Seed uint64
	// Threads is the intra-rank worker budget handed to the dhsort/hss
	// compute kernels (core.Config.Threads).  0 means 1: experiments pin
	// the budget rather than inherit GOMAXPROCS so virtual-clock tables
	// are identical on every machine.
	Threads int
	// Fault is a seeded failure schedule (zero = fault-free).  The fault
	// experiment runs it as an extra measured row on top of its built-in
	// degradation grid; other text experiments ignore it.
	Fault fault.Plan
}

func (o Options) reps() int {
	if o.Reps <= 0 {
		return 3
	}
	return o.Reps
}

func (o Options) threads() int {
	if o.Threads <= 0 {
		return 1
	}
	return o.Threads
}

// Experiment is a runnable evaluation artifact.
type Experiment struct {
	Name        string
	Description string
	Run         func(Options) error
}

// Experiments lists every artifact, in the paper's order.
var Experiments = []Experiment{
	{"machine", "Table I — modelled SuperMUC Phase 2 node and network", Machine},
	{"fig2a", "Fig. 2(a) — strong scaling, dhsort vs HSS (Charm++)", Fig2a},
	{"fig2b", "Fig. 2(b) — strong-scaling phase fractions", Fig2b},
	{"fig3a", "Fig. 3(a) — weak scaling, dhsort vs HSS (Charm++)", Fig3a},
	{"fig3b", "Fig. 3(b) — weak-scaling phase fractions", Fig3b},
	{"fig4", "Fig. 4 — shared-memory NUMA study vs PSTL/OpenMP stand-ins", Fig4},
	{"iters", "§V-A — histogramming iteration counts by key width and P", Iters},
	{"merge", "§VI-E — k-way merge study (threads × chunks)", MergeStudy},
	{"local", "ablation — intra-rank kernels: introsort vs LSD radix vs fork-join merge sort", LocalKernels},
	{"normal", "§VI-B — normal-distribution robustness, dhsort vs HSS", NormalStudy},
	{"pgas", "ablation — PGAS shared-memory windows vs pure MPI intra-node", PGAS},
	{"baselines", "ablation — all five sorters on one configuration", Baselines},
	{"overlap", "ablation — exchange/merge strategies incl. fused overlap (§VI-E1)", Overlap},
	{"exchange", "ablation — two-sided ALLTOALLV vs fused overlap vs one-sided RMA put", ExchangeStudy},
	{"collectives", "micro — modelled collective latencies vs rank count", Collectives},
	{"splitters", "ablation — splitter strategies: histogram vs sampled vs selection", Splitters},
	{"split", "ablation — k-ary splitter probing: rounds and Splitting time vs probes per boundary", SplitStudy},
	{"skew", "extension — PGX.D-style duplicate floods: imbalance vs flood fraction by splitter strategy", SkewStudy},
	{"fault", "extension — resilience degradation under seeded fault schedules (drop rate × crashes)", FaultStudy},
	{"shrink", "extension — graceful degradation: crash-respawn vs die-shrink recovery", ShrinkStudy},
	{"ooc", "extension — out-of-core spill: merge fan-in ablation under a 1/8 memory budget", OOCStudy},
	{"elastic", "extension — elastic worlds: mid-stream grow vs static provisioning", ElasticStudy},
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// sorter adapts one distributed sorting algorithm to the shared runner.
type sorter struct {
	name string
	run  func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, seed uint64) ([]uint64, error)
}

// The dhsort/hss factories take the intra-rank thread budget explicitly:
// Threads == 0 would fall back to GOMAXPROCS inside core, making modelled
// times machine-dependent.
func dhsortSorter(threads int) sorter {
	return sorter{"dhsort", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, _ uint64) ([]uint64, error) {
		return core.Sort(c, local, keys.Uint64{}, core.Config{VirtualScale: scale, Threads: threads, Recorder: rec})
	}}
}

// dhsortFusedSorter selects the fused exchange+merge: two-sided 1-factor
// sendrecv rounds with merging overlapped behind later transfers (§VI-E1).
func dhsortFusedSorter(threads int) sorter {
	return sorter{"dhsort-fused", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, _ uint64) ([]uint64, error) {
		return core.Sort(c, local, keys.Uint64{}, core.Config{Merge: core.MergeOverlap, VirtualScale: scale, Threads: threads, Recorder: rec})
	}}
}

// dhsortRMASorter selects the one-sided put+notify exchange over rma
// windows (the paper's DART/DASH substrate).
func dhsortRMASorter(threads int) sorter {
	return sorter{"dhsort-rma", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, _ uint64) ([]uint64, error) {
		return core.Sort(c, local, keys.Uint64{}, core.Config{Exchange: comm.ExchangeRMAPut, VirtualScale: scale, Threads: threads, Recorder: rec})
	}}
}

func hssSorter(threads int) sorter {
	return sorter{"hss", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, seed uint64) ([]uint64, error) {
		return core.Sort(c, local, keys.Uint64{}, core.Config{Splitter: core.SplitSampled, Seed: seed, VirtualScale: scale, Threads: threads, Recorder: rec})
	}}
}

func samplesortSorter() sorter {
	return sorter{"samplesort", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, seed uint64) ([]uint64, error) {
		return samplesort.Sort(c, local, keys.Uint64{}, samplesort.Config{
			Variant: samplesort.RegularSampling, VirtualScale: scale, Recorder: rec, Seed: seed})
	}}
}

func hyksortSorter() sorter {
	return sorter{"hyksort", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, _ uint64) ([]uint64, error) {
		return hyksort.Sort(c, local, keys.Uint64{}, hyksort.Config{VirtualScale: scale, Recorder: rec})
	}}
}

func bitonicSorter() sorter {
	return sorter{"bitonic", func(c *comm.Comm, local []uint64, scale float64, rec *metrics.Recorder, _ uint64) ([]uint64, error) {
		return bitonic.Sort(c, local, keys.Uint64{}, bitonic.Config{VirtualScale: scale, Recorder: rec})
	}}
}

// point is one measured configuration.
type point struct {
	Makespan time.Duration
	Phases   metrics.Summary
}

// runOnce executes one distributed sort under the model and verifies the
// output invariant.
func runOnce(s sorter, p, perRank int, model *simnet.CostModel, scale float64, spec workload.Spec) (point, error) {
	return runOnceFaults(s, p, perRank, model, scale, spec, fault.Plan{})
}

// runOnceFaults is runOnce under a seeded fault schedule: the sort must
// survive the injected failures and still satisfy the output invariant.
func runOnceFaults(s sorter, p, perRank int, model *simnet.CostModel, scale float64, spec workload.Spec, plan fault.Plan) (point, error) {
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
		out, err := s.run(c, local, scale, rec, spec.Seed)
		if err != nil {
			return err
		}
		rec.Finish()
		rec.SetElements(len(local), len(out))
		if !core.IsGloballySorted(c, out, keys.Uint64{}) {
			return fmt.Errorf("%s produced an unsorted result", s.name)
		}
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		return point{}, err
	}
	return point{Makespan: w.Makespan(), Phases: metrics.Summarize(recs)}, nil
}

// series runs reps repetitions with distinct seeds and summarizes them.
func series(s sorter, p, perRank int, model *simnet.CostModel, scale float64, spec workload.Spec, reps int) (stats.Summary, metrics.Summary, error) {
	runs := make([]time.Duration, 0, reps)
	var phases metrics.Summary
	for rep := 0; rep < reps; rep++ {
		sp := spec
		sp.Seed = spec.Seed + uint64(rep)*1000003
		pt, err := runOnce(s, p, perRank, model, scale, sp)
		if err != nil {
			return stats.Summary{}, metrics.Summary{}, err
		}
		runs = append(runs, pt.Makespan)
		if rep == 0 {
			phases = pt.Phases
		}
	}
	return stats.Summarize(runs), phases, nil
}

// seconds renders a duration in seconds with 3 decimals.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
