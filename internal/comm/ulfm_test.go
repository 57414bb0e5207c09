package comm

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"dhsort/internal/fault"
	"dhsort/internal/simnet"
)

// diePlan is a minimal fault plan whose only purpose is to arm the
// injector (inj != nil) with a death schedule, enabling the failure
// registry and the liveness checks.
func diePlan(rank, step int) fault.Plan {
	return fault.Plan{Seed: 1, Deaths: []fault.Death{{Rank: rank, Step: step}}}
}

// TestTryCatchesFailureError pins the recovery boundary: Try converts a
// FailureError panic into an error carrying the sentinel, and re-raises
// anything else.
func TestTryCatchesFailureError(t *testing.T) {
	err := Try(func() {
		panic(&FailureError{err: ErrRankDead, Rank: 3, Comm: 1, Detail: "test"})
	})
	if !errors.Is(err, ErrRankDead) {
		t.Fatalf("Try must surface ErrRankDead, got: %v", err)
	}
	var fe *FailureError
	if !errors.As(err, &fe) || fe.Rank != 3 {
		t.Fatalf("Try must surface the typed failure, got: %#v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Try swallowed a foreign panic")
		}
	}()
	_ = Try(func() { panic("not a failure") })
}

// TestDieUnwindsBlockedReceiver is the asynchronous detection path: a rank
// that dies mid-computation wakes a peer blocked on a receive from it, and
// the peer's receive raises the typed ErrRankDead through Try.
func TestDieUnwindsBlockedReceiver(t *testing.T) {
	w, err := NewWorldWithFaults(2, simnet.SuperMUC(2, true), diePlan(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Die() // never returns
		}
		rerr := Try(func() { Recv[int](c, 1, 5) })
		if !errors.Is(rerr, ErrRankDead) {
			t.Errorf("blocked receive from a dead rank must raise ErrRankDead, got: %v", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !w.RankDead(1) || w.RankDead(0) {
		t.Errorf("dead-rank registry wrong: %v", w.DeadRanks())
	}
}

// TestDieIsCleanExit pins the world-level contract of a scheduled death:
// the victim's exit is not an error and does not abort the others.
func TestDieIsCleanExit(t *testing.T) {
	w, err := NewWorldWithFaults(4, simnet.SuperMUC(2, true), diePlan(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	var survivors int
	var mu sync.Mutex
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			c.Die()
		}
		mu.Lock()
		survivors++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("a scheduled death must not surface as a world error: %v", err)
	}
	if survivors != 3 {
		t.Fatalf("%d survivors returned, want 3", survivors)
	}
}

// TestRevokeAgreeShrink walks the full ULFM recipe at the comm level: rank
// 2 of 8 dies, the survivors revoke, agree on the survivor bitmap (passing
// the schedule-derived suspicion), shrink, and verify the new communicator
// is densely re-ranked in the original order and fully collective-capable.
func TestRevokeAgreeShrink(t *testing.T) {
	const p = 8
	w, err := NewWorldWithFaults(p, simnet.SuperMUC(4, true), diePlan(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		Barrier(c) // everyone up
		if c.Rank() == 2 {
			c.Die()
		}
		suspect := make([]bool, p)
		suspect[2] = true
		c.Revoke()
		if !c.Revoked() {
			t.Errorf("rank %d: communicator not revoked after Revoke", c.Rank())
		}
		alive, rounds := c.Agree(suspect)
		want := make([]bool, p)
		for i := range want {
			want[i] = i != 2
		}
		if !reflect.DeepEqual(alive, want) {
			t.Errorf("rank %d agreed on %v", c.Rank(), alive)
		}
		if rounds != 3 { // ceil(log2(7))
			t.Errorf("rank %d: %d agreement rounds, want 3", c.Rank(), rounds)
		}
		nc := c.Shrink(alive)
		if nc.Size() != p-1 {
			t.Errorf("shrunken communicator has size %d", nc.Size())
		}
		wantRank := c.Rank()
		if c.Rank() > 2 {
			wantRank--
		}
		if nc.Rank() != wantRank {
			t.Errorf("world rank %d got shrunken rank %d, want %d", c.Rank(), nc.Rank(), wantRank)
		}
		// The shrunken communicator must be fully usable: a collective
		// over the original world ranks proves clean transport state.
		got := AllgatherOne(nc, c.WorldRank())
		if !reflect.DeepEqual(got, []int{0, 1, 3, 4, 5, 6, 7}) {
			t.Errorf("allgather on shrunken comm: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAgreeMergesLaggingRegistration pins the consistency property Agree is
// built for: a survivor whose local registry view lags (the victim's
// registration not yet visible) still reaches the same bitmap because the
// schedule-derived suspicion is ORed with the registry.
func TestAgreeMergesLaggingRegistration(t *testing.T) {
	const p = 4
	w, err := NewWorldWithFaults(p, simnet.SuperMUC(2, true), diePlan(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		// Rank 3 "dies" without ever running: the others agree it away
		// purely from the suspicion, as if its registration had not
		// landed yet.
		if c.Rank() == 3 {
			c.Die()
		}
		suspect := make([]bool, p)
		suspect[3] = true
		alive, _ := c.Agree(suspect)
		if alive[3] || !alive[0] || !alive[1] || !alive[2] {
			t.Errorf("rank %d agreed on %v", c.Rank(), alive)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckRevokedGuardsOneSided pins the one-sided poison: after Revoke,
// CheckRevoked raises ErrCommRevoked through Try.
func TestCheckRevokedGuardsOneSided(t *testing.T) {
	w, err := NewWorldWithFaults(2, simnet.SuperMUC(2, true), diePlan(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		Barrier(c)
		c.Revoke()
		rerr := Try(func() { c.CheckRevoked() })
		if !errors.Is(rerr, ErrCommRevoked) {
			t.Errorf("CheckRevoked on a revoked communicator must raise ErrCommRevoked, got: %v", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShrinkPreservesDeterministicIdentity pins the identity derivation:
// the shrunken communicator's id is a pure function of the parent id and
// the survivor bitmap, so identical runs (and all survivors within a run)
// land on the same communicator identity.
func TestShrinkPreservesDeterministicIdentity(t *testing.T) {
	const p = 4
	run := func() []uint64 {
		w, err := NewWorldWithFaults(p, simnet.SuperMUC(2, true), diePlan(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, p)
		var mu sync.Mutex
		err = w.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				c.Die()
			}
			suspect := make([]bool, p)
			suspect[1] = true
			alive, _ := c.Agree(suspect)
			nc := c.Shrink(alive)
			mu.Lock()
			ids[c.Rank()] = nc.id
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("shrunken communicator identities differ across identical runs: %v vs %v", a, b)
	}
	if a[0] == 0 || a[0] != a[2] || a[0] != a[3] {
		t.Errorf("survivors disagree on the shrunken identity: %v", a)
	}
}
