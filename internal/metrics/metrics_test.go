package metrics

import (
	"testing"
	"time"

	"dhsort/internal/comm"
	"dhsort/internal/simnet"
)

// TestRecorderAttributesTimeAndTraffic drives a recorder by hand: clock
// advances and stats mutations between Enter calls must land in the phase
// that was active when they happened.
func TestRecorderAttributesTimeAndTraffic(t *testing.T) {
	model := simnet.SuperMUC(16, true)
	clock := simnet.NewClock(model)
	var st comm.Stats
	rec := NewRecorder(clock, &st)

	rec.Enter(LocalSort)
	clock.Advance(10 * time.Millisecond)

	rec.Enter(Histogram)
	clock.Advance(2 * time.Millisecond)
	st.Messages[simnet.Network] += 5
	st.Bytes[simnet.Network] += 500
	rec.AddIteration()
	rec.AddIteration()

	rec.Enter(Exchange)
	clock.Advance(7 * time.Millisecond)
	st.Messages[simnet.SameNUMA] += 3
	st.Bytes[simnet.SameNUMA] += 4096
	rec.AddExchangedBytes(4096)

	rec.Enter(Merge)
	clock.Advance(4 * time.Millisecond)
	rec.Finish()
	rec.SetElements(100, 100)

	want := map[Phase]time.Duration{
		LocalSort: 10 * time.Millisecond,
		Histogram: 2 * time.Millisecond,
		Exchange:  7 * time.Millisecond,
		Merge:     4 * time.Millisecond,
		Other:     0,
	}
	for p, d := range want {
		if rec.Times[p] != d {
			t.Errorf("phase %v time = %v, want %v", p, rec.Times[p], d)
		}
	}
	if got := rec.Links[Histogram][simnet.Network]; got != (LinkTally{Messages: 5, Bytes: 500}) {
		t.Errorf("Histogram network tally = %+v", got)
	}
	if got := rec.Links[Exchange][simnet.SameNUMA]; got != (LinkTally{Messages: 3, Bytes: 4096}) {
		t.Errorf("Exchange same-numa tally = %+v", got)
	}
	if got := rec.Links[Exchange][simnet.Network]; got != (LinkTally{}) {
		t.Errorf("Exchange network tally = %+v, want zero", got)
	}
	if rec.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", rec.Iterations)
	}
	if rec.ExchangedBytes != 4096 {
		t.Errorf("ExchangedBytes = %d, want 4096", rec.ExchangedBytes)
	}
	if rec.Total() != 23*time.Millisecond {
		t.Errorf("Total = %v, want 23ms", rec.Total())
	}
}

// TestNilRecorderIsSafe exercises every method on a nil recorder.
func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	rec.Enter(LocalSort)
	rec.Finish()
	rec.AddIteration()
	rec.AddExchangedBytes(1)
	rec.SetElements(1, 2)
}

// TestRecorderPhases checks time before the first Enter lands in Other and
// each later stretch in the phase entered before it.
func TestRecorderPhases(t *testing.T) {
	clk := simnet.NewClock(simnet.SuperMUC(16, true))
	r := NewRecorder(clk, nil)
	clk.Advance(5 * time.Millisecond) // Other
	r.Enter(LocalSort)
	clk.Advance(10 * time.Millisecond)
	r.Enter(Histogram)
	clk.Advance(3 * time.Millisecond)
	r.Enter(Exchange)
	clk.Advance(7 * time.Millisecond)
	r.Enter(Merge)
	clk.Advance(2 * time.Millisecond)
	r.Finish()
	want := map[Phase]time.Duration{
		Other: 5 * time.Millisecond, LocalSort: 10 * time.Millisecond,
		Histogram: 3 * time.Millisecond, Exchange: 7 * time.Millisecond,
		Merge: 2 * time.Millisecond,
	}
	for p, d := range want {
		if r.Times[p] != d {
			t.Errorf("%v = %v, want %v", p, r.Times[p], d)
		}
	}
	if r.Total() != 27*time.Millisecond {
		t.Errorf("total = %v", r.Total())
	}
}

// TestRecorderCounters checks the iteration and exchanged-byte counters
// accumulate without a stats block attached.
func TestRecorderCounters(t *testing.T) {
	r := NewRecorder(simnet.NewClock(simnet.SuperMUC(16, true)), nil)
	for i := 0; i < 30; i++ {
		r.AddIteration()
	}
	r.AddExchangedBytes(100)
	r.AddExchangedBytes(28)
	if r.Iterations != 30 || r.ExchangedBytes != 128 {
		t.Errorf("counters: %d, %d", r.Iterations, r.ExchangedBytes)
	}
}

// TestNilRecorderTracingIsSafe exercises the phase, counter and fault-span
// calls an untraced run makes on a nil recorder.
func TestNilRecorderTracingIsSafe(t *testing.T) {
	var r *Recorder
	r.Enter(LocalSort)
	r.Finish()
	r.AddIteration()
	r.AddExchangedBytes(10)
	r.AddFaultSpan("inject", "drop", time.Millisecond)
}

// TestRecorderReentersPhase checks a phase entered twice accumulates both
// stretches.
func TestRecorderReentersPhase(t *testing.T) {
	clk := simnet.NewClock(simnet.SuperMUC(16, true))
	r := NewRecorder(clk, nil)
	r.Enter(Histogram)
	clk.Advance(time.Millisecond)
	r.Enter(Other)
	r.Enter(Histogram)
	clk.Advance(2 * time.Millisecond)
	r.Finish()
	if r.Times[Histogram] != 3*time.Millisecond {
		t.Errorf("Histogram = %v", r.Times[Histogram])
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		LocalSort: "LocalSort", Histogram: "Histogram", Exchange: "Exchange",
		Merge: "Merge", Other: "Other", Phase(42): "Unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

// TestSummarizeImbalance checks the cross-rank aggregation: mean/max phase
// times, link totals, and both imbalance factors.
func TestSummarizeImbalance(t *testing.T) {
	model := simnet.SuperMUC(16, true)
	mk := func(sortMS int, out int, netBytes int64) *Recorder {
		clock := simnet.NewClock(model)
		var st comm.Stats
		r := NewRecorder(clock, &st)
		r.Enter(LocalSort)
		clock.Advance(time.Duration(sortMS) * time.Millisecond)
		st.Messages[simnet.Network]++
		st.Bytes[simnet.Network] += netBytes
		r.Finish()
		r.SetElements(out, out)
		return r
	}
	recs := []*Recorder{mk(10, 100, 1000), mk(30, 300, 3000), nil, mk(20, 200, 2000)}
	s := Summarize(recs)
	if s.Ranks != 3 {
		t.Fatalf("Ranks = %d, want 3", s.Ranks)
	}
	if s.Times[LocalSort] != 20*time.Millisecond {
		t.Errorf("mean LocalSort = %v, want 20ms", s.Times[LocalSort])
	}
	if s.MaxTimes[LocalSort] != 30*time.Millisecond {
		t.Errorf("max LocalSort = %v, want 30ms", s.MaxTimes[LocalSort])
	}
	if got := s.TotalLinks()[simnet.Network]; got != (LinkTally{Messages: 3, Bytes: 6000}) {
		t.Errorf("network totals = %+v", got)
	}
	if s.NetworkBytes() != 6000 || s.TotalBytes() != 6000 || s.TotalMessages() != 3 {
		t.Errorf("totals = %d bytes net, %d bytes, %d msgs", s.NetworkBytes(), s.TotalBytes(), s.TotalMessages())
	}
	// max/mean: time 30/20 = 1.5, output 300/200 = 1.5.
	if s.TimeImbalance < 1.49 || s.TimeImbalance > 1.51 {
		t.Errorf("TimeImbalance = %v, want 1.5", s.TimeImbalance)
	}
	if s.OutputImbalance < 1.49 || s.OutputImbalance > 1.51 {
		t.Errorf("OutputImbalance = %v, want 1.5", s.OutputImbalance)
	}
	if f := s.Fraction(LocalSort); f < 0.99 {
		t.Errorf("Fraction(LocalSort) = %v, want ~1", f)
	}
}
