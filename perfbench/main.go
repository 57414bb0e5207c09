// Command perfbench is the wall-clock benchmark of the distributed
// histogram sort: a library sort, the sort service under large inline
// jobs, and the modelled paper run.
// See README.md for what each workload is for and how to read its metrics.
//
//	perfbench --workload sort-uniform --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics and writes the run's spans as Chrome
// trace-event JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric.  A metric whose per-operation
// samples are 0/1 flags or counts to average sets mean; the rest take the
// median over operations.
type metricDef struct {
	name, unit string
	mean       bool
}

// endToEnd are the metrics a user of the library or the service sees, in
// the order they are printed.  Every workload reports all of them.
var endToEnd = []metricDef{
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
	{name: "keys_per_s", unit: "keys/s"},
	{name: "jobs_per_s", unit: "1/s"},
	{name: "makespan_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayer are the traced run's metrics, each timed around calls into one
// module of the program (or read from its Recorder).  A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{name: "sortutil.radix_ns_per_key", unit: "ns/key"},
	{name: "sortutil.radix_vs_slices_ratio", unit: "ratio"},
	{name: "sortutil.radix_zipf_ns_per_key", unit: "ns/key"},
	{name: "sortutil.radix_zipf_vs_slices_ratio", unit: "ratio"},
	{name: "core.localsort_ms", unit: "ms"},
	{name: "core.localsort_mean_ms", unit: "ms"},
	{name: "core.merge_ms", unit: "ms"},
	{name: "core.merge_mean_ms", unit: "ms"},
	{name: "core.splitting_ms", unit: "ms"},
	{name: "core.splitting_rounds", unit: "count"},
	{name: "core.verify_ms", unit: "ms"},
	{name: "comm.exchange_ms", unit: "ms"},
	{name: "comm.messages", unit: "count"},
	{name: "comm.bytes", unit: "B"},
	{name: "comm.world_setup_ms", unit: "ms"},
	{name: "model.localsort_ms", unit: "ms"},
	{name: "model.histogram_ms", unit: "ms"},
	{name: "model.exchange_ms", unit: "ms"},
	{name: "model.merge_ms", unit: "ms"},
	{name: "api.submit_ms", unit: "ms"},
	{name: "api.result_ms", unit: "ms"},
	{name: "api.polls_per_job", unit: "count", mean: true},
	{name: "api.poll_ms", unit: "ms", mean: true},
	{name: "svc.wire_to_run_ratio", unit: "ratio"},
	{name: "server.queue_wait_ms", unit: "ms"},
	{name: "server.run_ms", unit: "ms"},
	{name: "server.pool_hit_share", unit: "share", mean: true},
	{name: "server.batched_share", unit: "share", mean: true},
	{name: "server.batch_size_mean", unit: "count", mean: true},
	{name: "server.warm_start_share", unit: "share", mean: true},
	{name: "server.rejected", unit: "count"},
	{name: "trace_overhead_share", unit: "share"},
	{name: "trace_remainder_share", unit: "share"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	traceOut string
	// corruptOp, when >= 0, flips one key of that operation's output
	// before the check runs (self-tests prove the checker counts it).
	corruptOp int64
}

// workload is one named traffic mix.
type workload struct {
	name string
	// why is the reason the workload exists (printed with its parameters).
	why string
	// root names the span that encloses one operation in the trace.
	root string
	// setups is how many times a run repeats its set-up; setup_s is the
	// median, so one slow start-up does not decide it.
	setups int
	// tracedAlike marks a workload whose traced operations are served
	// exactly like untraced ones: the engine records every job's phases
	// anyway, and a job's spans are built only after its result is in.
	// Its trace_overhead_share is 0 by construction.
	tracedAlike bool
	run         func(r *run) error
}

var workloads = []workload{sortUniform, svcInline, paperModel}

// opResult is one attempted operation: a sort, a job or a probe.
type opResult struct {
	// warm marks a set-up operation: checked and counted as attempted,
	// but outside the latency and throughput figures.
	warm     bool
	traced   bool
	err      error
	keys     int
	lat      time.Duration
	end      time.Time
	makespan time.Duration
	// layer holds this operation's per-layer samples (traced ops only).
	layer map[string]float64
}

// run collects the operations, set-up times and per-layer values of one
// benchmark invocation.
type run struct {
	opts  options
	wl    workload
	tr    *tracer
	log   io.Writer
	start time.Time // start of the measured phase

	// rssAfter is the number of measured operations after which peak RSS
	// is sampled, so the figure does not grow with how many jobs a faster
	// build completes (the service keeps finished jobs).
	rssAfter int

	mu       sync.Mutex
	ops      []opResult
	measured int
	rss      float64
	setup    []time.Duration
	layer    map[string]float64
	nextOp   atomic.Int64
}

// record adds a finished operation; failures are logged and counted,
// never dropped.
func (r *run) record(o opResult) {
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: operation failed: %v\n", r.wl.name, o.err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, o)
	if !o.warm {
		r.measured++
		if r.measured == r.rssAfter {
			r.rss = peakRSSMB()
		}
	}
}

// setLayer sets a run-level per-layer value.
func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = v
}

// beginMeasure starts the measured phase and returns when it ends.
func (r *run) beginMeasure() time.Time {
	r.start = time.Now()
	return r.start.Add(time.Duration(r.opts.seconds * float64(time.Second)))
}

// opID returns a fresh operation id (the trace row of its spans).
func (r *run) opID() int64 { return r.nextOp.Add(1) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o := options{corruptOp: -1}
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a smoke size (self-tests)")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/traces/<workload>-<seed>.json)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	res, err := execute(o, os.Stdout)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// execute runs one workload and assembles its result; the human-readable
// report goes to log.
func execute(o options, log io.Writer) (result, error) {
	var wl workload
	for _, w := range workloads {
		if w.name == o.workload {
			wl = w
		}
	}
	if wl.name == "" {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	r := &run{opts: o, wl: wl, log: log, layer: make(map[string]float64), rssAfter: 1}
	if o.trace {
		r.tr = newTracer()
	}
	mode := "end-to-end (untraced)"
	if o.trace {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(log, "perfbench %s, seed %d, %gs measured, %s\n", wl.name, o.seed, o.seconds, mode)
	fmt.Fprintf(log, "host: nproc=%d GOMAXPROCS=%d GOOS=%s GOARCH=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
	fmt.Fprintf(log, "why: %s\n", wl.why)
	err := wl.run(r)
	if err != nil {
		return result{}, err
	}
	if o.trace {
		kernelProbe(r)
	}
	if r.rss == 0 {
		r.rss = peakRSSMB()
	}

	res := result{Metrics: make(map[string]metricValue)}
	for _, op := range r.ops {
		res.Attempted++
		if op.err != nil {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	defs, vals := endToEnd, r.endToEnd()
	if o.trace {
		defs = perLayer
		if vals, err = r.perLayer(); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(log, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(log, "  %-36s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
	return res, nil
}

// measuredOps returns the non-set-up operations, traced or untraced.
func (r *run) measuredOps(traced bool) []opResult {
	var out []opResult
	for _, op := range r.ops {
		if !op.warm && op.traced == traced {
			out = append(out, op)
		}
	}
	return out
}

// latencies returns the latencies of the successful operations in ops.
func latencies(ops []opResult) []float64 {
	var out []float64
	for _, op := range ops {
		if op.err == nil {
			out = append(out, ms(op.lat))
		}
	}
	return out
}

// endToEnd computes the user-visible metrics from the untraced operations.
func (r *run) endToEnd() map[string]float64 {
	ops := r.measuredOps(false)
	lats := latencies(ops)
	var keys, done float64
	var spans []float64
	last := r.start
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		done++
		keys += float64(op.keys)
		spans = append(spans, ms(op.makespan))
		if op.end.After(last) {
			last = op.end
		}
	}
	elapsed := last.Sub(r.start).Seconds()
	v := map[string]float64{
		"latency_p50_ms": median(lats),
		"makespan_ms":    median(spans),
		"peak_rss_mb":    r.rss,
	}
	tv, pct, n := tail(lats)
	v["latency_tail_ms"] = tv
	fmt.Fprintf(r.log, "latency: p50 %.3f ms, tail p%g %.3f ms over %d ops\n",
		v["latency_p50_ms"], pct, tv, n)
	if elapsed > 0 {
		v["keys_per_s"] = keys / elapsed
		v["jobs_per_s"] = done / elapsed
	}
	var setup []float64
	for _, d := range r.setup {
		setup = append(setup, d.Seconds())
	}
	v["setup_s"] = median(setup)
	return v
}

// perLayer aggregates the traced operations' layer samples (median, or
// mean for flags and counts), then the run-level values, then the tracing
// overhead and the unexplained share of the blocking path.
func (r *run) perLayer() (map[string]float64, error) {
	traced := r.measuredOps(true)
	v := make(map[string]float64)
	for _, d := range perLayer {
		var xs []float64
		for _, op := range traced {
			if x, ok := op.layer[d.name]; ok {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			continue
		}
		if d.mean {
			v[d.name] = mean(xs)
		} else {
			v[d.name] = median(xs)
		}
	}
	for name, x := range r.layer {
		v[name] = x
	}
	on, off := median(latencies(traced)), median(latencies(r.measuredOps(false)))
	if off > 0 && on > 0 && !r.wl.tracedAlike {
		v["trace_overhead_share"] = on/off - 1
	}
	fmt.Fprintf(r.log, "tracing overhead: traced median %.3f ms vs untraced %.3f ms", on, off)
	if r.wl.tracedAlike {
		fmt.Fprint(r.log, " (served alike, so reported as 0)")
	}
	fmt.Fprintln(r.log)
	if on > 0 {
		v["trace_remainder_share"] = r.tr.account(r.log, r.wl.root, time.Duration(on*float64(time.Millisecond)))
	}
	path := r.opts.traceOut
	if path == "" {
		path = fmt.Sprintf(".bench_build/traces/%s-%d.json", r.wl.name, r.opts.seed)
	}
	meta := map[string]string{"workload": r.wl.name, "seed": fmt.Sprint(r.opts.seed),
		"go": runtime.Version(), "goarch": runtime.GOARCH,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)), "nproc": fmt.Sprint(runtime.NumCPU())}
	if err := r.tr.writeChrome(path, meta); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "trace: %d spans written to %s\n", len(r.tr.spans), path)
	return v, nil
}
