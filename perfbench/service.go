package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dhsort/internal/api"
	"dhsort/internal/metrics"
	"dhsort/internal/server"
)

var svcInline = workload{
	name: "svc-inline",
	why: "the service with large inline jobs, where the wire (JSON decode, text result) " +
		"outweighs the sort, and zipf keys take the radix constant-digit-skip path",
	root:        "job",
	setups:      7,
	tracedAlike: true,
	run:         runSvcInline,
}

// service is one engine behind a loopback HTTP listener.
type service struct {
	eng  *server.Server
	http *http.Server
	base string
	done chan struct{}
	// warmID is the set-up warm-up job, left out of the phase medians.
	warmID string
}

// startService starts an engine with the service defaults and serves
// api.Handler on a loopback port.
func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{eng: server.New(server.Config{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.http = &http.Server{Handler: api.Handler(s.eng), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and every connection, waits for the serve loop
// to return, then shuts the engine down.
func (s *service) close() {
	_ = s.http.Close() // the only error is from closing the listener, already being torn down
	<-s.done
	s.eng.Close()
}

// client is one HTTP keep-alive connection to the service.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRejected marks a submission the service refused (429 or 503).
var errRejected = errors.New("submission refused")

// submit posts a job body for tenant and returns the accepted status.
func (c *client) submit(tenant string, body []byte) (server.JobStatus, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	var st server.JobStatus
	code, err := c.doJSON(req, &st)
	if err != nil {
		return st, err
	}
	switch code {
	case http.StatusAccepted:
		return st, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return st, fmt.Errorf("%w: HTTP %d", errRejected, code)
	}
	return st, fmt.Errorf("submit: HTTP %d", code)
}

// status fetches a job's status.
func (c *client) status(id string) (server.JobStatus, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	code, err := c.doJSON(req, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %s: HTTP %d", id, code)
	}
	return st, err
}

// result streams a job's text result into dst[:0].
func (c *client) result(id string, dst []uint64) ([]uint64, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return dst, fmt.Errorf("result %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return dst, fmt.Errorf("result %s: HTTP %d", id, resp.StatusCode)
	}
	return parseKeys(resp.Body, dst)
}

// doJSON sends req and decodes a JSON body into v, reading it to the end so
// the keep-alive connection is reused.
func (c *client) doJSON(req *http.Request, v any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// jobBody encodes an inline job as the JSON the service accepts.  Every
// job asks for one thread per rank: left at 0, the engine would give each
// rank GOMAXPROCS threads in real time.
func jobBody(keys []uint64, p int) []byte {
	b := make([]byte, 0, 21*len(keys)+32)
	b = append(b, `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, k, 10)
	}
	b = append(b, `],"threads":1,"p":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	return append(b, '}')
}

// jobInput is one pre-encoded job with the digest its result must match.
type jobInput struct {
	body []byte
	want digest
}

func newJobInput(keys []uint64, p int) jobInput {
	return jobInput{body: jobBody(keys, p), want: digestOf(keys)}
}

// ticket follows one submitted job from its first request byte to its
// checked result.
type ticket struct {
	op      int64
	traced  bool
	in      jobInput
	sent    time.Time // first request byte; latency is timed from here
	posted  time.Time // submit response read
	st      server.JobStatus
	polls   int
	pollDur time.Duration
}

// submitAndWait submits the job for tenant, then polls its status every
// pollEvery until it has ended.
func (t *ticket) submitAndWait(c *client, tenant string, pollEvery time.Duration) error {
	var err error
	t.st, err = c.submit(tenant, t.in.body)
	t.posted = time.Now()
	for ended := false; err == nil && !ended; {
		if ended, err = t.poll(c); err == nil && !ended {
			time.Sleep(pollEvery)
		}
	}
	return err
}

// poll fetches the job's status once and reports whether it has ended.
func (t *ticket) poll(c *client) (bool, error) {
	t0 := time.Now()
	st, err := c.status(t.st.ID)
	t.pollDur += time.Since(t0)
	t.polls++
	if err != nil {
		return true, err
	}
	t.st = st
	return st.State == server.StateDone || st.State == server.StateFailed, nil
}

// finish fetches and checks the result of an ended job (seen ended at
// seen) and turns the ticket into an operation, with spans and per-layer
// samples when traced.
func (t *ticket) finish(r *run, c *client, seen time.Time, buf *[]uint64) opResult {
	o := opResult{traced: t.traced, keys: t.in.want.n}
	var err error
	if t.st.State != server.StateDone {
		err = fmt.Errorf("job %s %s: %s", t.st.ID, t.st.State, t.st.Error)
	} else {
		*buf, err = c.result(t.st.ID, *buf)
	}
	end := time.Now()
	o.lat, o.end = end.Sub(t.sent), end
	// The time the job held a world.  JobStatus.MakespanNS is not used: in
	// real time a pooled world's clock restarts when its previous job ends,
	// so that figure includes the time the world sat idle in the pool.
	o.makespan = time.Duration(t.st.FinishedAt - t.st.StartedAt)
	if err == nil {
		r.corrupt(t.op, *buf)
		err = checkSorted(*buf, t.in.want)
	}
	o.err = err
	if !t.traced || err != nil {
		return o
	}
	submitted, started, finished := time.Unix(0, t.st.SubmittedAt), time.Unix(0, t.st.StartedAt), time.Unix(0, t.st.FinishedAt)
	run := finished.Sub(started)
	batch := max(t.st.BatchSize, 1)
	o.layer = map[string]float64{
		"api.submit_ms":           ms(t.posted.Sub(t.sent)),
		"api.result_ms":           ms(end.Sub(seen)),
		"api.polls_per_job":       float64(t.polls),
		"api.poll_ms":             ms(t.pollDur) / float64(max(t.polls, 1)),
		"server.queue_wait_ms":    ms(started.Sub(submitted)),
		"server.run_ms":           ms(run),
		"svc.wire_to_run_ratio":   float64(o.lat-run) / float64(max(run, 1)),
		"server.pool_hit_share":   oneIf(t.st.PoolHit),
		"server.batched_share":    oneIf(t.st.Batched),
		"server.batch_size_mean":  float64(batch),
		"server.warm_start_share": oneIf(t.st.WarmStart),
	}
	root := r.tr.add("job", -1, t.op, t.sent, end)
	r.tr.chain(root, t.op, []segment{
		{"api.submit", t.sent, t.posted},
		{"server.queue", submitted, started},
		{"server.run", started, finished},
		{"api.poll", finished, seen},
		{"api.result", seen, end},
	})
	return o
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// failed turns a job that never ran to completion into a failed operation.
func (t *ticket) failed(err error) opResult {
	now := time.Now()
	return opResult{traced: t.traced, keys: t.in.want.n, lat: now.Sub(t.sent), end: now, err: err}
}

// setUpService starts the service r.wl.setups times, each time until a
// warm-up job of the measured shape has run (so a pooled world exists),
// and keeps the last instance.  The warm-up results are checked.
func setUpService(r *run, warm jobInput) (*service, error) {
	var s *service
	for i := 0; i < r.wl.setups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startService(); err != nil {
			return nil, err
		}
		c := newClient(s.base)
		t := &ticket{op: r.opID(), in: warm, sent: t0}
		err = t.submitAndWait(c, "warmup", 200*time.Microsecond)
		s.warmID = t.st.ID
		r.setup = append(r.setup, time.Since(t0))
		var buf []uint64
		o := t.failed(err)
		if err == nil {
			o = t.finish(r, c, time.Now(), &buf)
		}
		o.warm = true
		r.record(o)
		c.close()
	}
	return s, nil
}

// serviceLayers reads the per-job phase documents the engine keeps (the
// Recorder summaries of its most recent jobs) and sets the core and comm
// per-layer values to their medians over the measured jobs among them.  A
// document that shows a rank running more than one thread is an error.
func serviceLayers(r *run, s *service, rejected int) error {
	c := newClient(s.base)
	defer c.close()
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/metrics", nil)
	if err != nil {
		return err
	}
	var m server.Metrics
	if code, err := c.doJSON(req, &m); err != nil || code != http.StatusOK {
		return fmt.Errorf("metrics: HTTP %d: %v", code, err)
	}
	acc := make(map[string][]float64)
	used := 0
	for _, e := range m.Jobs {
		if e.ID == s.warmID {
			continue
		}
		used++
		for _, rec := range e.Doc.Records {
			if rec.Threads != 1 {
				return fmt.Errorf("job %s ran with %d threads per rank, want 1", e.ID, rec.Threads)
			}
			ph := func(name string) metrics.PhaseStat { return rec.Phases[name] }
			var msgs, bytes float64
			for _, l := range rec.Totals.Links {
				msgs += float64(l.Messages)
				bytes += float64(l.Bytes)
			}
			for name, x := range map[string]float64{
				"core.localsort_ms":      nsMS(ph("LocalSort").MaxNS),
				"core.localsort_mean_ms": nsMS(ph("LocalSort").MeanNS),
				"core.merge_ms":          nsMS(ph("Merge").MaxNS),
				"core.merge_mean_ms":     nsMS(ph("Merge").MeanNS),
				"core.splitting_ms":      nsMS(ph("Histogram").MaxNS),
				"core.splitting_rounds":  float64(rec.Iterations),
				"comm.exchange_ms":       nsMS(ph("Exchange").MaxNS),
				"comm.messages":          msgs,
				"comm.bytes":             bytes,
			} {
				acc[name] = append(acc[name], x)
			}
		}
	}
	for name, xs := range acc {
		r.setLayer(name, median(xs))
	}
	r.setLayer("server.rejected", float64(rejected))
	fmt.Fprintf(r.log, "engine: %d jobs done, %d failed, %d refused (quota %d, queue %d), %d batches, pool hits %d / misses %d; phase medians over %d measured job documents\n",
		m.JobsDone, m.JobsFailed, m.RejectedQuota+m.RejectedQueueFull, m.RejectedQuota, m.RejectedQueueFull,
		m.Batches, m.Pool.Hits, m.Pool.Misses, used)
	return nil
}

func nsMS(ns int64) float64 { return float64(ns) / 1e6 }

// runSvcInline drives two closed-loop clients, each on its own connection,
// submitting 1 Mi zipf keys at p=4 as JSON, polling status and streaming
// the text result.
func runSvcInline(r *run) error {
	const clients, p = 2, 4
	n, pollEvery := 1<<20, 5*time.Millisecond
	if r.opts.tiny {
		n = 1 << 12
	}
	rng := rand.New(rand.NewPCG(r.opts.seed, streamSvcInline))
	inputs := make([]jobInput, clients)
	for i := range inputs {
		inputs[i] = newJobInput(zipfKeys(rng, n), p)
	}
	fmt.Fprintf(r.log, "shape: service defaults, %d closed-loop clients on their own connections, %d zipf keys over 1e9 per job at p=%d (%d-byte JSON body), poll every %v\n",
		clients, n, p, len(inputs[0].body), pollEvery)
	s, err := setUpService(r, newJobInput(zipfKeys(rng, 4096), p))
	if err != nil {
		return err
	}
	defer s.close()

	r.rssAfter = 16
	deadline := r.beginMeasure()
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(s.base)
			defer c.close()
			var buf []uint64
			for k := 0; time.Now().Before(deadline); k++ {
				t := &ticket{op: r.opID(), traced: r.tr != nil && k%2 == 1, in: inputs[ci], sent: time.Now()}
				// Rotating tenants keeps the per-tenant quota from refusing
				// short jobs (the tiny self-test size runs far above 5/s).
				if err := t.submitAndWait(c, fmt.Sprintf("inline-%d-%d", ci, k%64), pollEvery); err != nil {
					if errors.Is(err, errRejected) {
						rejected.Add(1)
					}
					r.record(t.failed(err))
					continue
				}
				r.record(t.finish(r, c, time.Now(), &buf))
			}
		}()
	}
	wg.Wait()
	if r.tr != nil {
		if err := serviceLayers(r, s, int(rejected.Load())); err != nil {
			return err
		}
	}
	return nil
}
