// Package fault is the deterministic fault-injection plane of the runtime:
// a seeded schedule of message-level faults (drop, duplication, delay
// jitter, reordering) and rank-level faults (stall, crash-at-superstep)
// that the comm transport and the sorting supersteps consult while they
// run.
//
// Every decision is a pure function of the schedule seed and the identity
// of the event being adjudicated — (communicator, src, dst, tag, sequence
// number, attempt) for messages, (rank, superstep) for crashes and stalls —
// so a failure run is bit-reproducible no matter how the rank goroutines
// interleave.  The resilience mechanisms that survive the injected faults
// live elsewhere: retransmission with exponential backoff and
// sequence-number dedup in internal/comm, superstep checkpoint/recovery in
// internal/core.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultMaxDelay bounds injected arrival jitter when the schedule does not
// set one.
const DefaultMaxDelay = 100 * time.Microsecond

// Crash schedules one rank to fail immediately after completing the given
// superstep (1-based; see core.StepLocalSort and friends).  The rank
// respawns and re-enters from its last checkpoint instead of wedging the
// world.
type Crash struct {
	Rank int
	Step int
}

// Stall schedules one rank to freeze for D of virtual time at the given
// superstep boundary — a straggler, not a failure.
type Stall struct {
	Rank int
	Step int
	D    time.Duration
}

// Death schedules one rank to fail permanently immediately after completing
// the given superstep (1-based).  Unlike a Crash there is no respawn: the
// rank leaves the computation for good and the survivors must notice
// (ErrRankDead), agree, and continue on a shrunken communicator.
type Death struct {
	Rank int
	Step int
}

// Plan is a seeded fault schedule.  The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision; two runs with the same
	// plan produce the same faults.
	Seed uint64

	// DropRate is the probability that one transmission attempt of a
	// point-to-point message is lost (the sender times out and
	// retransmits).  Retransmission attempts are adjudicated
	// independently.
	DropRate float64
	// DupRate is the probability that a delivered message arrives twice
	// (e.g. a retransmission racing its own ack); the receiver's
	// sequence-number dedup discards the copy.
	DupRate float64
	// DelayRate is the probability that a delivered message picks up
	// extra arrival jitter, uniform in (0, MaxDelay].
	DelayRate float64
	// MaxDelay bounds the injected jitter (0 means DefaultMaxDelay).
	MaxDelay time.Duration
	// ReorderRate is the probability that a delivered message jumps ahead
	// of messages already queued at the receiver; per-flow sequence
	// numbers restore delivery order.
	ReorderRate float64

	// Crashes, Stalls and Deaths are the scheduled rank-level faults.
	Crashes []Crash
	Stalls  []Stall
	Deaths  []Death

	// Watchdog, when positive, bounds how long a receive may block on the
	// wall clock before the rank declares the sender dead and aborts the
	// world with a diagnostic — the detection path for faults the plan
	// did not schedule a recovery for.
	Watchdog time.Duration
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.MessageFaults() || len(p.Crashes) > 0 || len(p.Stalls) > 0 || len(p.Deaths) > 0
}

// MessageFaults reports whether any message-level fault rate is active —
// the condition under which the transport switches to sequenced,
// retransmitting delivery.
func (p Plan) MessageFaults() bool {
	return p.DropRate > 0 || p.DupRate > 0 || p.DelayRate > 0 || p.ReorderRate > 0
}

// maxDelay returns the effective jitter bound.
func (p Plan) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return DefaultMaxDelay
	}
	return p.MaxDelay
}

// Validate rejects schedules the resilience layer cannot guarantee to
// survive (rates out of range, negative coordinates).
func (p Plan) Validate() error {
	check := func(name string, r float64) error {
		if r < 0 || r > maxRate {
			return fmt.Errorf("fault: %s rate %v outside [0, %v]", name, r, maxRate)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		r    float64
	}{{"drop", p.DropRate}, {"dup", p.DupRate}, {"delay", p.DelayRate}, {"reorder", p.ReorderRate}} {
		if err := check(c.name, c.r); err != nil {
			return err
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("fault: negative MaxDelay %v", p.MaxDelay)
	}
	if p.Watchdog < 0 {
		return fmt.Errorf("fault: negative Watchdog %v", p.Watchdog)
	}
	for _, c := range p.Crashes {
		if c.Rank < 0 || c.Step < 1 {
			return fmt.Errorf("fault: crash %d@%d needs rank >= 0 and step >= 1", c.Rank, c.Step)
		}
	}
	for _, s := range p.Stalls {
		if s.Rank < 0 || s.Step < 1 || s.D <= 0 {
			return fmt.Errorf("fault: stall %d@%d:%v needs rank >= 0, step >= 1 and a positive duration", s.Rank, s.Step, s.D)
		}
	}
	seen := make(map[int]bool, len(p.Deaths))
	for _, d := range p.Deaths {
		if d.Rank < 0 || d.Step < 1 {
			return fmt.Errorf("fault: die %d@%d needs rank >= 0 and step >= 1", d.Rank, d.Step)
		}
		if seen[d.Rank] {
			return fmt.Errorf("fault: rank %d scheduled to die more than once", d.Rank)
		}
		seen[d.Rank] = true
	}
	return nil
}

// maxRate caps the per-attempt loss probability so that the retransmission
// protocol's attempt budget terminates with overwhelming probability.
const maxRate = 0.5

// String renders the plan in the Parse syntax (canonical field order).
func (p Plan) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.DropRate > 0 {
		add(fmt.Sprintf("drop=%g", p.DropRate))
	}
	if p.DupRate > 0 {
		add(fmt.Sprintf("dup=%g", p.DupRate))
	}
	if p.DelayRate > 0 {
		if p.MaxDelay > 0 {
			add(fmt.Sprintf("delay=%g:%v", p.DelayRate, p.MaxDelay))
		} else {
			add(fmt.Sprintf("delay=%g", p.DelayRate))
		}
	}
	if p.ReorderRate > 0 {
		add(fmt.Sprintf("reorder=%g", p.ReorderRate))
	}
	for _, c := range p.Crashes {
		add(fmt.Sprintf("crash=%d@%d", c.Rank, c.Step))
	}
	for _, s := range p.Stalls {
		add(fmt.Sprintf("stall=%d@%d:%v", s.Rank, s.Step, s.D))
	}
	for _, d := range p.Deaths {
		add(fmt.Sprintf("die=%d@%d", d.Rank, d.Step))
	}
	if p.Watchdog > 0 {
		add(fmt.Sprintf("watchdog=%v", p.Watchdog))
	}
	add(fmt.Sprintf("seed=%d", p.Seed))
	return strings.Join(parts, ",")
}

// Parse builds a plan from the comma-separated CLI syntax used by the
// -fault flags:
//
//	drop=0.01,dup=0.005,delay=0.02:50us,reorder=0.01,seed=7
//	crash=3@2,stall=1@1:200us,die=5@1,watchdog=30s
//
// crash=RANK@STEP, stall=RANK@STEP:DUR and die=RANK@STEP may repeat; delay
// takes an optional :MAXJITTER suffix.  An empty string parses to the zero
// plan.
func Parse(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "drop":
			p.DropRate, err = parseRate(key, val)
		case "dup":
			p.DupRate, err = parseRate(key, val)
		case "reorder":
			p.ReorderRate, err = parseRate(key, val)
		case "delay":
			rate, jitter, cutOK := strings.Cut(val, ":")
			p.DelayRate, err = parseRate(key, rate)
			if err == nil && cutOK {
				p.MaxDelay, err = time.ParseDuration(jitter)
			}
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "watchdog":
			p.Watchdog, err = time.ParseDuration(val)
		case "crash":
			var rank, step int
			rank, step, err = parseRankStep(key, val)
			p.Crashes = append(p.Crashes, Crash{Rank: rank, Step: step})
		case "stall":
			at, dur, cutOK := strings.Cut(val, ":")
			if !cutOK {
				return Plan{}, fmt.Errorf("fault: stall %q needs RANK@STEP:DURATION", val)
			}
			var rank, step int
			var d time.Duration
			rank, step, err = parseRankStep(key, at)
			if err == nil {
				d, err = time.ParseDuration(dur)
			}
			p.Stalls = append(p.Stalls, Stall{Rank: rank, Step: step, D: d})
		case "die":
			var rank, step int
			rank, step, err = parseRankStep(key, val)
			p.Deaths = append(p.Deaths, Death{Rank: rank, Step: step})
		default:
			return Plan{}, fmt.Errorf("fault: unknown field %q (want drop|dup|delay|reorder|crash|stall|die|seed|watchdog)", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: field %q: %w", field, err)
		}
	}
	// Canonical schedule order, so Plan.String round-trips regardless of
	// the spelling order.
	sort.SliceStable(p.Crashes, func(i, j int) bool {
		if p.Crashes[i].Step != p.Crashes[j].Step {
			return p.Crashes[i].Step < p.Crashes[j].Step
		}
		return p.Crashes[i].Rank < p.Crashes[j].Rank
	})
	sort.SliceStable(p.Stalls, func(i, j int) bool {
		if p.Stalls[i].Step != p.Stalls[j].Step {
			return p.Stalls[i].Step < p.Stalls[j].Step
		}
		return p.Stalls[i].Rank < p.Stalls[j].Rank
	})
	sort.SliceStable(p.Deaths, func(i, j int) bool {
		if p.Deaths[i].Step != p.Deaths[j].Step {
			return p.Deaths[i].Step < p.Deaths[j].Step
		}
		return p.Deaths[i].Rank < p.Deaths[j].Rank
	})
	// A jitter bound without a positive delay rate can never fire; drop it
	// so the canonical rendering (which omits the delay field entirely)
	// round-trips to the identical plan.
	if p.DelayRate == 0 {
		p.MaxDelay = 0
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func parseRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > maxRate {
		return 0, fmt.Errorf("%s rate %v outside [0, %v]", key, r, maxRate)
	}
	return r, nil
}

func parseRankStep(key, val string) (rank, step int, err error) {
	r, s, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, fmt.Errorf("%s %q needs RANK@STEP", key, val)
	}
	if rank, err = strconv.Atoi(r); err != nil {
		return 0, 0, err
	}
	if step, err = strconv.Atoi(s); err != nil {
		return 0, 0, err
	}
	return rank, step, nil
}
