package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/metrics"
	"dhsort/internal/sortutil"
	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// The external-memory path (Config.MemBudget): when a rank's working set
// exceeds the budget, local sort produces budget-sized sorted runs in the
// out-of-core store, a loser-tree k-way merge combines them into the rank's
// sorted partition run, the search supersteps binary-search that run through
// a block cache, and the exchange writes received chunks to scratch runs
// instead of accumulating slices.  Everything the collective observes — the
// communication operations, their payload sizes, and every cost-model call —
// is a function of element counts only, never of the store backing, which is
// what makes a memory-backed and a filesystem-backed run of the same input
// bit-identical in output and virtual makespan.

// spillActive reports whether the configuration runs the external-memory
// path for this key type.  It must be uniform across the collective (it
// depends only on the shared Config and Ops), because it switches the
// exchange to the fused 1-factor schedule on every rank.
func spillActive[K any](cfg Config, ops keys.Ops[K]) bool {
	return cfg.MemBudget > 0 && keys.Lossless(ops)
}

// spillPlan carries one rank's external-memory execution parameters.
type spillPlan[K any] struct {
	st     store.Store
	prefix string
	chunk  int // records per budget-sized resident chunk
	fanIn  int
}

// newSpillPlan resolves the store and chunk geometry for this rank.  The
// store is the configured shared one when present; otherwise a run-private
// in-memory store (budget-bounded execution without a scratch directory).
func newSpillPlan[K any](c *comm.Comm, ops keys.Ops[K], cfg Config) *spillPlan[K] {
	st := cfg.durableStore()
	if st == nil {
		st = store.NewMem()
	}
	chunk := int(cfg.MemBudget / int64(ops.Bytes()))
	if chunk < 1 {
		chunk = 1
	}
	return &spillPlan[K]{
		st:     st,
		prefix: fmt.Sprintf("spill/w%d", c.WorldRank()),
		chunk:  chunk,
		fanIn:  cfg.fanIn(),
	}
}

// sortedSource abstracts this rank's locally sorted partition for the
// search-only supersteps (Splitting, ComputeCuts), so they run unchanged
// over a resident slice or a disk-resident run.
type sortedSource[K any] interface {
	Len() int
	// Extrema returns the smallest and largest key images; ok is false for
	// an empty partition.
	Extrema() (mn, mx xmath.U128, ok bool)
	// LowerBound returns the count of elements ordering strictly before k;
	// UpperBound the count ordering at or before it.  Both must agree with
	// binary search under ops.Less (the embedding is an order isomorphism,
	// so searching images with needle ToBits(k) is exactly that).
	LowerBound(k K) int
	UpperBound(k K) int
	// At returns the element at sorted position i (the sampled finder's
	// random sample).
	At(i int) K
}

// memSource is the resident sortedSource.
type memSource[K any] struct {
	s   []K
	ops keys.Ops[K]
}

func (m memSource[K]) Len() int { return len(m.s) }

func (m memSource[K]) Extrema() (xmath.U128, xmath.U128, bool) {
	if len(m.s) == 0 {
		return xmath.U128{}, xmath.U128{}, false
	}
	return m.ops.ToBits(m.s[0]), m.ops.ToBits(m.s[len(m.s)-1]), true
}

func (m memSource[K]) LowerBound(k K) int { return sortutil.LowerBound(m.s, k, m.ops.Less) }
func (m memSource[K]) UpperBound(k K) int { return sortutil.UpperBound(m.s, k, m.ops.Less) }
func (m memSource[K]) At(i int) K         { return m.s[i] }

// extBlock is the partition run's search block: the resident footprint of
// the block cache is one block, regardless of partition size.
const extBlock = 512

// extPartition is a sorted partition living as a sealed run in the store.
// Searches go through a one-block cache behind a mutex (the per-splitter
// searches fork across the thread budget); a store read failure mid-search
// panics — graceful degradation on corrupt runs belongs to the checkpoint
// restore path, which audits before trusting.
type extPartition[K any] struct {
	st    store.Store
	name  string
	count int64
	ops   keys.Ops[K]

	mu    sync.Mutex
	rdr   store.Reader
	blk   []xmath.U128
	blkLo int64
}

func openExtPartition[K any](st store.Store, name string, ops keys.Ops[K]) (*extPartition[K], error) {
	count, err := st.Len(name)
	if err != nil {
		return nil, err
	}
	return &extPartition[K]{st: st, name: name, count: count, ops: ops}, nil
}

// reset repoints the partition at another sealed run (checkpoint restore)
// and drops all cached state.
func (e *extPartition[K]) reset(name string, count int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rdr != nil {
		e.rdr.Close()
		e.rdr = nil
	}
	e.name, e.count, e.blk, e.blkLo = name, count, nil, 0
}

// dropCache models the loss of a crashed process's volatile state: the block
// cache and open reader go away, the sealed run on the store does not.
func (e *extPartition[K]) dropCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rdr != nil {
		e.rdr.Close()
		e.rdr = nil
	}
	e.blk, e.blkLo = nil, 0
}

func (e *extPartition[K]) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rdr == nil {
		return nil
	}
	err := e.rdr.Close()
	e.rdr = nil
	return err
}

func (e *extPartition[K]) Len() int { return int(e.count) }

func (e *extPartition[K]) Extrema() (xmath.U128, xmath.U128, bool) {
	if e.count == 0 {
		return xmath.U128{}, xmath.U128{}, false
	}
	return e.img(0), e.img(e.count - 1), true
}

// img returns the key image at record i through the block cache.
func (e *extPartition[K]) img(i int64) xmath.U128 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i >= e.blkLo && i < e.blkLo+int64(len(e.blk)) {
		return e.blk[i-e.blkLo]
	}
	lo := i - i%extBlock
	want := e.count - lo
	if want > extBlock {
		want = extBlock
	}
	if cap(e.blk) < int(want) {
		e.blk = make([]xmath.U128, want)
	}
	e.blk = e.blk[:want]
	e.readAt(lo, e.blk)
	e.blkLo = lo
	return e.blk[i-lo]
}

// readAt fills dst with the records at [rec, rec+len(dst)); the caller holds
// the mutex.
func (e *extPartition[K]) readAt(rec int64, dst []xmath.U128) {
	if e.rdr == nil {
		r, err := e.st.Open(e.name)
		if err != nil {
			panic(fmt.Errorf("core: spilled partition %q: %w", e.name, err))
		}
		e.rdr = r
	}
	if err := e.rdr.SeekRecord(rec); err != nil {
		panic(fmt.Errorf("core: spilled partition %q: %w", e.name, err))
	}
	for len(dst) > 0 {
		n, err := e.rdr.Read(dst)
		if err != nil && err != io.EOF {
			panic(fmt.Errorf("core: spilled partition %q: %w", e.name, err))
		}
		if n == 0 {
			panic(fmt.Errorf("core: spilled partition %q ended %d records early", e.name, len(dst)))
		}
		dst = dst[n:]
	}
}

func (e *extPartition[K]) LowerBound(k K) int {
	needle := e.ops.ToBits(k)
	return sort.Search(int(e.count), func(i int) bool { return !e.img(int64(i)).Less(needle) })
}

func (e *extPartition[K]) UpperBound(k K) int {
	needle := e.ops.ToBits(k)
	return sort.Search(int(e.count), func(i int) bool { return needle.Less(e.img(int64(i))) })
}

func (e *extPartition[K]) At(i int) K { return e.ops.FromBits(e.img(int64(i))) }

// segment decodes the record range [lo, hi) into a fresh slice.
func (e *extPartition[K]) segment(lo, hi int) []K {
	if hi <= lo {
		return nil
	}
	imgs := make([]xmath.U128, hi-lo)
	e.mu.Lock()
	e.readAt(int64(lo), imgs)
	e.mu.Unlock()
	out := make([]K, len(imgs))
	for i, b := range imgs {
		out[i] = e.ops.FromBits(b)
	}
	return out
}

// materialize decodes the whole partition.
func (e *extPartition[K]) materialize() []K {
	return e.segment(0, int(e.count))
}

// writeRunKeys seals ks (in order) as the named run, encoding each key to
// its 128-bit image.
func writeRunKeys[K any](st store.Store, name string, ks []K, ops keys.Ops[K]) error {
	w, err := st.Create(name)
	if err != nil {
		return err
	}
	buf := make([]xmath.U128, 0, 4096)
	for _, k := range ks {
		buf = append(buf, ops.ToBits(k))
		if len(buf) == cap(buf) {
			if err := w.Append(buf); err != nil {
				w.Close()
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if err := w.Append(buf); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// extSortLocal is the Local Sort superstep of the external-memory path:
// budget-sized chunks are sorted resident through the same kernel dispatch
// as the in-memory sort (each chunk priced on the virtual clock), sealed as
// store runs, and merged by the loser tree into the rank's sorted partition
// run.  The merge is priced as the sequential tournament it is.
func extSortLocal[K any](c *comm.Comm, local []K, ops keys.Ops[K], cfg Config, plan *spillPlan[K]) (*extPartition[K], error) {
	model := c.Model()
	scale := cfg.scale()
	threads := cfg.threads()
	rec := cfg.Recorder
	n := len(local)

	nRuns := (n + plan.chunk - 1) / plan.chunk
	if nRuns < 1 {
		nRuns = 1 // an empty partition still seals an empty run
	}
	buf := make([]K, 0, min(plan.chunk, n))
	spans := make([]store.Span, 0, nRuns)
	kernel := ""
	for i := 0; i < nRuns; i++ {
		lo := i * plan.chunk
		hi := lo + plan.chunk
		if hi > n {
			hi = n
		}
		buf = append(buf[:0], local[lo:hi]...)
		k, passes := LocalSortKernel(buf, ops, cfg.Kernel, threads, nil)
		kernel = k
		if model != nil {
			c.Clock().Advance(LocalSortCost(model, k, int(float64(len(buf))*scale), passes, threads))
		}
		name := fmt.Sprintf("%s/ls%d", plan.prefix, i)
		if err := writeRunKeys(plan.st, name, buf, ops); err != nil {
			return nil, err
		}
		rec.AddSpill(1, int64(len(buf))*store.RecordBytes)
		spans = append(spans, store.Span{Name: name, Lo: 0, Hi: int64(len(buf))})
	}
	rec.SetLocalSort(kernel, threads)

	partName := spans[0].Name
	if len(spans) > 1 {
		partName = plan.prefix + "/part"
		if _, err := store.MergeSpans(plan.st, spans, partName, plan.fanIn); err != nil {
			return nil, err
		}
		// A fan-in below the run count forces reduction passes: tmpRecs
		// records pass through intermediate runs before the final pass over
		// all n.  Both the pricing and the scratch-traffic counters see them;
		// the plan depends only on span lengths, so both stay
		// backing-independent.
		tmpRuns, tmpRecs := mergePassStats(spans, plan.fanIn)
		if model != nil {
			c.Clock().Advance(model.MergeCost(int(float64(int64(n)+tmpRecs)*scale), min(len(spans), plan.fanIn)))
		}
		rec.AddSpill(1+tmpRuns, (int64(n)+tmpRecs)*store.RecordBytes)
		for _, s := range spans {
			if err := plan.st.Remove(s.Name); err != nil {
				return nil, err
			}
		}
	}
	return openExtPartition(plan.st, partName, ops)
}

// mergePassStats is store.MergePlanStats over spans: the intermediate runs
// and records of the multi-pass reduction at the given fan-in.
func mergePassStats(spans []store.Span, fanIn int) (int, int64) {
	lens := make([]int64, len(spans))
	for i, s := range spans {
		lens[i] = s.Len()
	}
	return store.MergePlanStats(lens, fanIn)
}

// spilledExchangeMerge is the data-exchange + merge superstep of the
// external-memory path: the same explicit 1-factor sendrecv rounds as the
// fused overlap exchange (so spilled and resident ranks interoperate and the
// wire pattern is backing-independent), but each received chunk is sealed
// into a scratch run instead of accumulating in memory, and the final
// partition streams out of one loser-tree merge over those runs — priced as
// the sequential tournament merge.
func spilledExchangeMerge[K any](c *comm.Comm, part *extPartition[K], ops keys.Ops[K], sendCounts []int, cfg Config, plan *spillPlan[K]) ([]K, error) {
	p := c.Size()
	model := c.Model()
	scale := cfg.scale()
	rec := cfg.Recorder
	rec.SetExchangeAlg("fused-1factor")

	offsets := make([]int, p+1)
	for d := 0; d < p; d++ {
		offsets[d+1] = offsets[d] + sendCounts[d]
	}

	var spans []store.Span
	spill := func(idx int, chunk []K) error {
		if len(chunk) == 0 {
			return nil
		}
		name := fmt.Sprintf("%s/rx%d", plan.prefix, idx)
		if err := writeRunKeys(plan.st, name, chunk, ops); err != nil {
			return err
		}
		rec.AddSpill(1, int64(len(chunk))*store.RecordBytes)
		spans = append(spans, store.Span{Name: name, Lo: 0, Hi: int64(len(chunk))})
		return nil
	}

	if err := spill(0, part.segment(offsets[c.Rank()], offsets[c.Rank()+1])); err != nil {
		return nil, err
	}
	rounds := comm.OneFactorRounds(p)
	for r := 0; r < rounds; r++ {
		partner := comm.OneFactorPartner(p, r, c.Rank())
		if partner < 0 {
			continue
		}
		got := comm.SendrecvProtocol(c, partner, overlapTag+r, part.segment(offsets[partner], offsets[partner+1]), scale)
		if err := spill(r+1, got); err != nil {
			return nil, err
		}
	}

	rec.Enter(metrics.Merge)
	m, err := store.NewMerger(plan.st, spans, plan.fanIn, plan.prefix+"/rxm")
	if err != nil {
		return nil, err
	}
	defer m.Close()
	out := make([]K, 0, m.Total())
	for {
		b, ok, err := m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, ops.FromBits(b))
	}
	if len(spans) > 1 {
		tmpRuns, tmpRecs := mergePassStats(spans, plan.fanIn)
		if tmpRuns > 0 {
			rec.AddSpill(tmpRuns, tmpRecs*store.RecordBytes)
		}
		if model != nil {
			c.Clock().Advance(model.MergeCost(int(float64(int64(len(out))+tmpRecs)*scale), min(len(spans), plan.fanIn)))
		}
	}
	for _, s := range spans {
		if err := plan.st.Remove(s.Name); err != nil {
			return nil, err
		}
	}
	return out, nil
}
