// Command dhsort sorts a generated workload with the distributed histogram
// sort and prints timing, phase breakdown and verification results.
//
// Usage:
//
//	dhsort -p 64 -n 1000000 -dist uniform
//	dhsort -p 2048 -n 4194304 -model pgas -scale 1024   # virtual SuperMUC time
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"dhsort"
	"dhsort/internal/bitonic"
	"dhsort/internal/comm"
	"dhsort/internal/core"
	"dhsort/internal/fault"
	"dhsort/internal/hyksort"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/samplesort"
	"dhsort/internal/simnet"
	"dhsort/internal/workload"
)

func main() {
	// Service-client subcommands (submit/status/result/health/stats) talk to
	// a dhsortd server; everything else is the original local runner.
	if len(os.Args) > 1 {
		if code, ok := runClientCommand(os.Args[1], os.Args[2:]); ok {
			os.Exit(code)
		}
	}
	var (
		p      = flag.Int("p", 8, "number of ranks")
		n      = flag.Int("n", 1<<20, "total number of keys")
		dist   = flag.String("dist", "uniform", "distribution: uniform|normal|zipf|nearly-sorted|duplicate-heavy|all-equal")
		span   = flag.Uint64("span", 1e9, "key span (0 = full uint64 range)")
		seed   = flag.Uint64("seed", 1, "workload seed")
		eps    = flag.Float64("eps", 0, "load-balance threshold (0 = perfect partitioning)")
		probes = flag.Int("probes", 1, "histogram probes per unfinished splitter per round for dhsort/hss (1 = bisection)")
		merge  = flag.String("merge", "resort", "local merge: resort|binary-tree|loser-tree|overlap")
		exch   = flag.String("exchange", "auto", "data exchange: auto|pairwise|one-factor|bruck|hierarchical|rma-put")
		alg    = flag.String("alg", "dhsort", "algorithm: dhsort|hss|samplesort|hyksort|bitonic")
		model  = flag.String("model", "none", "cost model: none (real time) | pgas | mpi")
		rpn    = flag.Int("ranks-per-node", 16, "ranks per node for the cost model")
		scale  = flag.Float64("scale", 1, "virtual data-scale multiplier (with a cost model)")
		thr    = flag.Int("threads", 0, "intra-rank worker budget for dhsort/hss compute kernels (0 = GOMAXPROCS; set 1 for reproducible virtual clocks)")
		kern   = flag.String("kernel", "", "force the dhsort Local Sort kernel: radix|task-merge|introsort (empty = dispatch by key type)")
		fspec  = flag.String("fault", "", "seeded fault schedule, e.g. drop=0.01,dup=0.005,delay=0.02:50us,seed=7,crash=3@2,stall=1@1:200us,die=5@1 (empty = fault-free)")
		rcv    = flag.String("recovery", "respawn", "permanent-death (die=) recovery: respawn (death is fatal) | shrink (continue on the survivors)")
		budget = flag.Int64("mem-budget", 0, "per-rank in-memory budget in bytes; above it local sort spills sorted runs to the scratch store and the exchange merges from disk (0 = fully resident; dhsort/hss only)")
		spillD = flag.String("spill-dir", "", "scratch directory for spilled runs and their checkpoint runs; used with -mem-budget (empty = run-private in-memory store)")
		fanIn  = flag.Int("spill-fan-in", 0, "k-way merge fan-in for spilled runs (0 = default 8)")
		dump   = flag.String("dump", "", "write the sorted output keys, one decimal per line in world-rank order, to this file")
	)
	flag.Parse()

	var m *simnet.CostModel
	switch *model {
	case "none":
	case "pgas":
		m = simnet.SuperMUC(*rpn, true)
	case "mpi":
		m = simnet.SuperMUC(*rpn, false)
	default:
		fmt.Fprintf(os.Stderr, "dhsort: unknown model %q\n", *model)
		os.Exit(2)
	}
	var ms dhsort.MergeStrategy
	switch *merge {
	case "resort":
		ms = dhsort.MergeResort
	case "binary-tree":
		ms = dhsort.MergeBinaryTree
	case "loser-tree":
		ms = dhsort.MergeLoserTree
	case "overlap":
		ms = dhsort.MergeOverlap
	default:
		fmt.Fprintf(os.Stderr, "dhsort: unknown merge strategy %q\n", *merge)
		os.Exit(2)
	}
	var ex dhsort.ExchangeAlgorithm
	switch *exch {
	case "auto":
		ex = dhsort.ExchangeAuto
	case "pairwise":
		ex = dhsort.ExchangePairwise
	case "one-factor":
		ex = dhsort.ExchangeOneFactor
	case "bruck":
		ex = dhsort.ExchangeBruck
	case "hierarchical":
		ex = dhsort.ExchangeHierarchical
	case "rma-put":
		ex = dhsort.ExchangeRMAPut
	default:
		fmt.Fprintf(os.Stderr, "dhsort: unknown exchange algorithm %q\n", *exch)
		os.Exit(2)
	}

	if *probes < 0 || *probes > dhsort.MaxProbes {
		fmt.Fprintf(os.Stderr, "dhsort: -probes %d outside the accepted range [0, %d]\n", *probes, dhsort.MaxProbes)
		os.Exit(2)
	}

	plan, err := fault.Parse(*fspec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhsort:", err)
		os.Exit(2)
	}
	switch *rcv {
	case dhsort.RecoveryRespawn, dhsort.RecoveryShrink:
	default:
		fmt.Fprintf(os.Stderr, "dhsort: unknown recovery mode %q (want respawn|shrink)\n", *rcv)
		os.Exit(2)
	}
	if *rcv == dhsort.RecoveryShrink && *alg != "dhsort" && *alg != "hss" {
		fmt.Fprintf(os.Stderr, "dhsort: -recovery shrink is only supported by alg dhsort and hss, not %q\n", *alg)
		os.Exit(2)
	}
	if *budget < 0 {
		fmt.Fprintln(os.Stderr, "dhsort: -mem-budget must be non-negative")
		os.Exit(2)
	}
	if (*budget > 0 || *spillD != "" || *fanIn != 0) && *alg != "dhsort" && *alg != "hss" {
		fmt.Fprintf(os.Stderr, "dhsort: the out-of-core flags are only supported by alg dhsort and hss, not %q\n", *alg)
		os.Exit(2)
	}
	w, err := comm.NewWorldWithFaults(*p, m, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhsort:", err)
		os.Exit(1)
	}
	recs := make([]*metrics.Recorder, *p)
	outs := make([][]uint64, *p)
	verified := true
	var mu sync.Mutex
	wall := time.Now()
	err = w.Run(func(c *comm.Comm) error {
		spec := workload.Spec{Dist: workload.Distribution(*dist), Seed: *seed, Span: *span}
		local, err := spec.Rank(c.Rank(), workload.LocalSize(*n, *p, c.Rank()))
		if err != nil {
			return err
		}
		rec := metrics.ForComm(c)
		// Register the recorder before sorting: a rank scheduled to die
		// never returns from Sort, but its fault tallies must survive.
		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
		eff := c
		var out []uint64
		switch *alg {
		case "dhsort":
			out, eff, err = dhsort.SortResilient(c, local, dhsort.Uint64Ops, dhsort.Config{
				Epsilon: *eps, Probes: *probes, Merge: ms, Exchange: ex, VirtualScale: *scale, Threads: *thr, Kernel: *kern,
				Recorder: rec, Recovery: *rcv,
				MemBudget: *budget, SpillDir: *spillD, SpillFanIn: *fanIn,
			})
		case "hss":
			out, eff, err = core.SortResilient(c, local, keys.Uint64{}, core.Config{
				Splitter: core.SplitSampled, Seed: *seed,
				Epsilon: *eps, Probes: *probes, Exchange: ex, VirtualScale: *scale, Threads: *thr, Recorder: rec,
				Recovery:  *rcv,
				MemBudget: *budget, SpillDir: *spillD, SpillFanIn: *fanIn,
			})
		case "samplesort":
			out, err = samplesort.Sort(c, local, keys.Uint64{}, samplesort.Config{
				VirtualScale: *scale, Recorder: rec, Seed: *seed,
			})
		case "hyksort":
			out, err = hyksort.Sort(c, local, keys.Uint64{}, hyksort.Config{
				VirtualScale: *scale, Recorder: rec,
			})
		case "bitonic":
			out, err = bitonic.Sort(c, local, keys.Uint64{}, bitonic.Config{
				VirtualScale: *scale, Recorder: rec,
			})
		default:
			return fmt.Errorf("unknown algorithm %q", *alg)
		}
		if err != nil {
			return err
		}
		rec.Finish()
		rec.SetElements(len(local), len(out))
		// After a shrink recovery the result lives on the survivor
		// communicator; adoption makes partition sizes imperfect by design.
		ok := dhsort.IsGloballySorted(eff, out, dhsort.Uint64Ops)
		perfect := (*alg == "dhsort" || *alg == "hss") && eff.Size() == *p
		mu.Lock()
		verified = verified && ok && (!perfect || *eps > 0 || len(out) == len(local))
		outs[c.Rank()] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhsort:", err)
		os.Exit(1)
	}

	elapsed := time.Since(wall)
	s := metrics.Summarize(recs)
	fmt.Printf("sorted %d %s keys on %d ranks (alg=%s, eps=%v, merge=%s)\n", *n, *dist, *p, *alg, *eps, *merge)
	if s.ExchangeAlg != "" {
		fmt.Printf("data exchange: %s (effective)\n", s.ExchangeAlg)
	}
	if s.LocalSortKernel != "" {
		fmt.Printf("local sort kernel: %s (%d threads)\n", s.LocalSortKernel, s.Threads)
	}
	if s.SpilledRuns > 0 {
		fmt.Printf("out-of-core: %d spilled runs, %.2f MiB scratch traffic (budget %d B/rank)\n",
			s.SpilledRuns, float64(s.SpillBytes)/(1<<20), *budget)
	}
	if m != nil {
		fmt.Printf("virtual makespan: %v (SuperMUC model, %d ranks/node, scale x%g; wall %v)\n",
			w.Makespan().Round(time.Microsecond), *rpn, *scale, elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("wall time: %v\n", elapsed.Round(time.Millisecond))
	}
	fmt.Printf("histogram iterations: %d\n", s.MaxIterations)
	fmt.Printf("load imbalance: time %.3f, output %.3f (1.000 = balanced)\n", s.TimeImbalance, s.OutputImbalance)
	fmt.Println("phase breakdown (mean across ranks; messages/bytes are totals):")
	for ph := metrics.Phase(0); ph < metrics.NumPhases; ph++ {
		var msgs, bytes int64
		for _, lt := range s.Links[ph] {
			msgs += lt.Messages
			bytes += lt.Bytes
		}
		fmt.Printf("  %-10s %8v  %5.1f%%  %8d msgs  %8.2f MiB\n",
			ph, s.Times[ph].Round(time.Microsecond), 100*s.Fraction(ph), msgs, float64(bytes)/(1<<20))
	}
	st := w.TotalStats()
	fmt.Printf("communication by link class (%d messages, %.2f MiB total):\n",
		st.TotalMessages(), float64(st.TotalBytes())/(1<<20))
	for _, lc := range simnet.LinkClasses {
		if st.Messages[lc] == 0 && st.Puts[lc] == 0 {
			continue
		}
		fmt.Printf("  %-10s %8d msgs  %8.2f MiB\n", lc, st.Messages[lc], float64(st.Bytes[lc])/(1<<20))
	}
	if st.TotalPuts() > 0 {
		fmt.Printf("one-sided traffic (%d puts, %.2f MiB, %d notifies):\n",
			st.TotalPuts(), float64(st.TotalPutBytes())/(1<<20), st.TotalNotifies())
		for _, lc := range simnet.LinkClasses {
			if st.Puts[lc] == 0 {
				continue
			}
			fmt.Printf("  %-10s %8d puts  %8.2f MiB  %8d notifies\n",
				lc, st.Puts[lc], float64(st.PutBytes[lc])/(1<<20), st.Notifies[lc])
		}
	}
	if plan.Enabled() {
		f := st.Fault
		fmt.Printf("fault plane (%s):\n", plan)
		fmt.Printf("  injected:   %d drops, %d dups, %d delays, %d reorders\n",
			f.Drops, f.Dups, f.Delays, f.Reorders)
		fmt.Printf("  resilience: %d retries (%v waited), %d dedup hits\n",
			f.Retries, time.Duration(f.RetryNS).Round(time.Microsecond), f.Dedup)
		fmt.Printf("  checkpoint: %d checkpoints (%.2f MiB), %d recoveries (%v), %d stalls (%v)\n",
			s.Fault.Checkpoints, float64(s.Fault.CheckpointBytes)/(1<<20),
			s.Fault.Recoveries, time.Duration(s.Fault.RecoveryNS).Round(time.Microsecond),
			s.Fault.Stalls, time.Duration(s.Fault.StallNS).Round(time.Microsecond))
		if s.Fault.Deaths > 0 {
			fmt.Printf("  shrink:     %d deaths (recovery=%s), %d agree rounds, %d shrinks (%v), %d survivors\n",
				s.Fault.Deaths, *rcv, s.Fault.AgreeRounds, s.Fault.Shrinks,
				time.Duration(s.Fault.ShrinkNS).Round(time.Microsecond), s.Survivors)
		}
	}
	if *dump != "" {
		if err := writeDump(*dump, outs); err != nil {
			fmt.Fprintln(os.Stderr, "dhsort: dump:", err)
			os.Exit(1)
		}
	}
	if verified {
		fmt.Println("verification: globally sorted, partition sizes OK")
	} else {
		fmt.Println("verification: FAILED")
		os.Exit(1)
	}
}

// writeDump writes the output keys in world-rank order, one decimal per
// line — the format readKeys and the CI multiset checks consume.
func writeDump(path string, outs [][]uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for _, ks := range outs {
		for _, k := range ks {
			buf = strconv.AppendUint(buf[:0], k, 10)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
