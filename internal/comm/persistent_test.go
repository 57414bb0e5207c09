package comm

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"dhsort/internal/simnet"
)

// allreduceJob is a tiny collective job: every rank contributes its rank,
// all check the global sum.
func allreduceJob(p int) func(c *Comm) error {
	want := p * (p - 1) / 2
	return func(c *Comm) error {
		got := AllreduceOne(c, c.Rank(), func(a, b int) int { return a + b })
		if got != want {
			return fmt.Errorf("rank %d: allreduce sum = %d, want %d", c.Rank(), got, want)
		}
		return nil
	}
}

func TestPersistentWorldReuse(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		pw, err := NewPersistentWorld(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < 5; job++ {
			if err := pw.Execute(allreduceJob(p)); err != nil {
				t.Fatalf("p=%d job %d: %v", p, job, err)
			}
		}
		if got := pw.JobsRun(); got != 5 {
			t.Errorf("p=%d: JobsRun = %d, want 5", p, got)
		}
		if !pw.Healthy() {
			t.Errorf("p=%d: world unhealthy after clean jobs", p)
		}
		pw.Close()
		if err := pw.Execute(allreduceJob(p)); !errors.Is(err, ErrWorldClosed) {
			t.Errorf("p=%d: Execute after Close = %v, want ErrWorldClosed", p, err)
		}
	}
}

// TestPersistentWorldStatsResetBetweenJobs is the pooled-world ownership
// audit: a job's stats must not leak into the next job's accounting, even
// though the worlds, goroutines and Comm values are reused.
func TestPersistentWorldStatsResetBetweenJobs(t *testing.T) {
	const p = 4
	pw, err := NewPersistentWorld(p, simnet.SuperMUC(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()

	// Job 1: a chatty job — P rounds of allgather.
	heavy := func(c *Comm) error {
		for i := 0; i < 8; i++ {
			AllgatherOne(c, c.Rank())
		}
		return nil
	}
	if err := pw.Execute(heavy); err != nil {
		t.Fatal(err)
	}
	heavyStats := pw.TotalStats()
	heavyMsgs := heavyStats.TotalMessages()
	heavySpan := pw.Makespan()
	if heavyMsgs == 0 || heavySpan == 0 {
		t.Fatalf("heavy job recorded no traffic (msgs=%d span=%v)", heavyMsgs, heavySpan)
	}

	// Job 2: a single barrier — far less traffic.  If stats leaked across
	// jobs, job 2 would report at least job 1's volume.
	if err := pw.Execute(func(c *Comm) error { Barrier(c); return nil }); err != nil {
		t.Fatal(err)
	}
	lightStats := pw.TotalStats()
	lightMsgs := lightStats.TotalMessages()
	lightSpan := pw.Makespan()
	if lightMsgs >= heavyMsgs {
		t.Errorf("stats leaked across jobs: light job reports %d msgs >= heavy job's %d", lightMsgs, heavyMsgs)
	}
	if lightSpan >= heavySpan {
		t.Errorf("clock leaked across jobs: light makespan %v >= heavy %v", lightSpan, heavySpan)
	}

	// Job 3: zero-communication job reports zero stats.
	if err := pw.Execute(func(c *Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The post-job quiesce barrier itself is attributed to the job that ran,
	// so a no-op job still shows the barrier's messages — but nothing else.
	noopStats := pw.TotalStats()
	if got := noopStats.TotalMessages(); got > lightMsgs {
		t.Errorf("no-op job reports %d msgs, want <= a lone barrier's %d", got, lightMsgs)
	}
}

// TestPersistentWorldDeterministicVirtualClocks pins the per-job clock
// reset: the same job repeated on a warm world yields the identical virtual
// makespan every time.
func TestPersistentWorldDeterministicVirtualClocks(t *testing.T) {
	const p = 8
	pw, err := NewPersistentWorld(p, simnet.SuperMUC(4, false))
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	var spans []time.Duration
	for i := 0; i < 4; i++ {
		if err := pw.Execute(allreduceJob(p)); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, pw.Makespan())
	}
	for i, s := range spans {
		if s != spans[0] {
			t.Errorf("job %d makespan %v differs from job 0's %v (clock not reset?)", i, s, spans[0])
		}
	}
}

func TestPersistentWorldBrokenByFailingJob(t *testing.T) {
	const p = 4
	pw, err := NewPersistentWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	if err := pw.Execute(allreduceJob(p)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = pw.Execute(func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		Barrier(c) // survivors block until the abort unwinds them
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing job returned %v, want boom", err)
	}
	if pw.Healthy() {
		t.Error("world still healthy after a failed job")
	}
	if err := pw.Execute(allreduceJob(p)); !errors.Is(err, ErrWorldBroken) {
		t.Errorf("Execute on broken world = %v, want ErrWorldBroken", err)
	}
}

// TestPersistentWorldTagIsolation runs point-to-point traffic on the same
// user tag across successive jobs: monotone transport state must keep the
// jobs' messages apart.
func TestPersistentWorldTagIsolation(t *testing.T) {
	const p = 3
	pw, err := NewPersistentWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	for job := 0; job < 4; job++ {
		job := job
		if err := pw.Execute(func(c *Comm) error {
			// Ring shift on a fixed tag; payload encodes the job index.
			next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
			SendScaled(c, next, 7, []int{job*100 + c.Rank()}, 1)
			got := Recv[int](c, prev, 7)
			if want := job*100 + prev; len(got) != 1 || got[0] != want {
				return fmt.Errorf("rank %d job %d: got %v, want [%d]", c.Rank(), job, got, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersistentWorldConcurrentSorts drives many rank-collective jobs with
// real shared state (exercised under -race by the CI race list): each job
// sorts a per-rank slice via allgather and checks the global order.
func TestPersistentWorldConcurrentSorts(t *testing.T) {
	const p = 8
	pw, err := NewPersistentWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	for job := 0; job < 6; job++ {
		job := job
		if err := pw.Execute(func(c *Comm) error {
			local := []int{c.Rank()*31 + job, c.Rank() ^ job}
			all := Allgather(c, local)
			var flat []int
			for _, b := range all {
				flat = append(flat, b...)
			}
			sort.Ints(flat)
			if len(flat) != 2*p {
				return fmt.Errorf("lost elements: %d", len(flat))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
