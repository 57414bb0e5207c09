package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"

	"dhsort/internal/comm"
	"dhsort/internal/keys"
	"dhsort/internal/store"
	"dhsort/internal/xmath"
)

// Superstep checkpointing — the resilience half of the fault plane
// (internal/fault).  At each superstep boundary a rank snapshots the state
// the next superstep depends on (the locally sorted partition, the splitter
// vector, the exchange cut offsets), checksums it, and mirrors the snapshot
// around a ring: the successor holds a replica it can audit for superstep
// agreement, adopt if the predecessor dies permanently
// (Config.Recovery == "shrink"), or serve back if the predecessor's own
// snapshot rots.  A rank the schedule crashes at that boundary loses its
// live state, pays the respawn + restore cost on the virtual clock,
// re-enters from the snapshot, and verifies the checksum before continuing;
// a corrupt snapshot falls back to the replica before failing with
// ErrCheckpointCorrupt.  A rank the schedule kills (die=RANK@STEP) leaves
// for good after mirroring.  Checkpointing only runs in fault-injecting
// worlds, so fault-free runs are byte-identical to before.
//
// The partition's backing alone decides where the sorted section of a
// snapshot lives.  A resident partition is deep-copied into the snapshot
// and into the ring message.  A spilled partition is copied run to run into
// a primary and a replica store run (ckptRun), which the ring message names
// implicitly by world rank and step.  The splitters and cuts are O(P) and
// always travel resident.

// The fault plane's superstep schedule: crash/stall coordinates in
// fault.Plan address these boundary indices.
const (
	// StepLocalSort is the boundary after the Local Sort superstep.
	StepLocalSort = 1
	// StepSplitting is the boundary after splitter determination.
	StepSplitting = 2
	// StepCuts is the boundary after the permutation-matrix construction,
	// immediately before the data exchange.
	StepCuts = 3
)

// ErrCheckpointCorrupt is the typed checkpoint-integrity error: a restored
// or adopted snapshot failed its checksum audit and its replica could not
// cover for it either.  It replaces the former checksum panic; callers
// receive it through Sort's error return.
var ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")

// ErrShardLost is returned when shrink recovery cannot be loss-free: a dead
// rank's ring successor — the holder of its mirrored shard — died at the
// same boundary, so the victim's data has no surviving replica.
var ErrShardLost = errors.New("core: checkpoint mirror lost: a rank and its ring successor died at the same boundary")

// ckptShard is one copy of a snapshot: the audit descriptor plus deep
// copies of the state, so the copy stays valid after the owner's buffers
// are reused (or the owner is gone).  Sorted is nil when the partition is
// spilled; its section then lives in the ckptRun store runs.
type ckptShard[K any] struct {
	Desc      ckptDesc
	Sorted    []K
	Splitters []K
	Cuts      []int
}

// ckptDesc is the audit descriptor carried with every mirrored snapshot:
// enough for a neighbour to verify superstep agreement.
type ckptDesc struct {
	Step  int32
	Elems int64
	Sum   uint64
}

// checkpoint is one rank's snapshot store: the last completed superstep's
// primary copy, the replica mirrored to the ring successor, and the ring
// predecessor's mirrored copy.  The zero value is ready; a nil pointer
// (fault-free run) makes boundary a no-op.
type checkpoint[K any] struct {
	primary ckptShard[K]

	// sent is the deep copy of primary as mirrored to the ring successor —
	// retained because it doubles as the local image of the remote replica
	// when the primary fails its checksum.
	sent ckptShard[K]

	// mirror is the ring predecessor's latest mirrored snapshot, adopted by
	// the shrink recovery when the predecessor dies.
	mirror      ckptShard[K]
	mirrorFrom  int // predecessor's communicator rank at mirror time
	mirrorWorld int // predecessor's world rank at mirror time
	mirrorValid bool

	// st holds the sorted sections of spilled snapshots (nil while the
	// partition is resident).
	st    store.Store
	ops   keys.Ops[K] // retained for adopt (shrinkRecover has no ops)
	world int         // this rank's world rank (ckptRun naming)
}

// ckptRun names the store run holding the sorted section of a spilled
// snapshot copy: ckpt/w<world>/s<step>.<p|r>.  Names carry the world rank
// and step, so a restored partition can keep pointing at a checkpoint run
// while the next boundary seals fresh names.
func ckptRun(world, step int, replica bool) string {
	side := "p"
	if replica {
		side = "r"
	}
	return fmt.Sprintf("ckpt/w%d/s%d.%s", world, step, side)
}

// boundary runs the checkpoint protocol at superstep boundary `step`.  The
// live state is (*sorted, *splitters, *cuts) on the resident path; on the
// external-memory path part is the store-resident partition (*sorted stays
// empty).  In fault-free worlds it does nothing.  Under fault injection it
// (1) snapshots + checksums the state and prices the checkpoint write, (2)
// mirrors the snapshot to the next ring neighbour and audits the
// predecessor's, (3) applies a scheduled permanent death — the rank mirrors
// first, then leaves for good —, (4) applies a scheduled stall, and (5)
// applies a scheduled crash: wipes the live state, pays respawn + restore,
// re-installs the snapshot (falling back to the replica on checksum
// failure) and only then errors with ErrCheckpointCorrupt.
func (ck *checkpoint[K]) boundary(c *comm.Comm, ops keys.Ops[K], cfg Config, step int, sorted *[]K, part *extPartition[K], splitters *[]K, cuts *[]int) error {
	if ck == nil {
		return nil
	}
	inj := c.FaultInjector()
	if inj == nil {
		return nil
	}
	rec := cfg.Recorder
	model := c.Model()
	p := c.Size()

	// (1) Snapshot and checksum the live state.  The write is priced at the
	// scaled volume, like the data it protects.  A spilled partition is
	// checksummed by streaming its run (auditing the run's own integrity on
	// the way), then copied into the primary and replica runs — each copy
	// independently from the live run, so a primary that rots at seal time
	// cannot poison the replica.
	pr := &ck.primary
	ck.ops, ck.world, ck.st = ops, c.WorldRank(), nil
	pr.Desc.Step = int32(step)
	pr.Splitters = snapshot(pr.Splitters, splitters)
	pr.Cuts = snapshot(pr.Cuts, cuts)
	liveRun := ""
	if part != nil {
		ck.st, liveRun = part.st, part.name
		pr.Sorted, pr.Desc.Elems = nil, part.count
	} else {
		pr.Sorted = snapshot(pr.Sorted, sorted)
		pr.Desc.Elems = int64(len(pr.Sorted))
	}
	sum, err := ck.fold(*pr, liveRun)
	if err != nil {
		return fmt.Errorf("%w: rank %d at step %d: partition run %q failed its audit at checkpoint time: %v", ErrCheckpointCorrupt, c.Rank(), step, liveRun, err)
	}
	pr.Desc.Sum = sum
	if part != nil {
		for _, replica := range []bool{false, true} {
			if err := copyRun(ck.st, part.name, ckptRun(ck.world, step, replica)); err != nil {
				return err
			}
		}
	}
	velems := int(float64(pr.Desc.Elems) * cfg.scale())
	vbytes := int64(float64(ck.bytes(ops)) * cfg.scale())
	if model != nil {
		c.Clock().Advance(model.ScanCost(velems) + model.CheckpointCost(int(vbytes)))
	}
	rec.AddCheckpoint(vbytes)

	// (2) Snapshot-mirror ring: ship a deep copy of the snapshot to the
	// next neighbour and hold the predecessor's, auditing superstep
	// agreement on the way.  Divergence means the checkpoint schedule
	// itself broke — abort loudly rather than sort wrong data.  The
	// message is priced at the snapshot's scaled volume (the struct's
	// nominal wire size is inflated to vbytes) whatever the backing: a
	// spilled snapshot's sorted section stays in the store, but the
	// checkpoint traffic it models is the same shard.
	if p > 1 {
		tag := c.FaultControlTag()
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		ck.sent = ckptShard[K]{
			Desc:      pr.Desc,
			Sorted:    slices.Clone(pr.Sorted),
			Splitters: slices.Clone(pr.Splitters),
			Cuts:      slices.Clone(pr.Cuts),
		}
		comm.SendProtocol(c, next, tag, []ckptShard[K]{ck.sent}, shardByteScale[K](vbytes))
		got := comm.RecvProtocol[ckptShard[K]](c, prev, tag)
		if len(got) != 1 || int(got[0].Desc.Step) != step {
			panic(fmt.Sprintf("core: checkpoint divergence at rank %d: boundary %d but predecessor %d mirrored %+v", c.Rank(), step, prev, got))
		}
		ck.mirror, ck.mirrorFrom, ck.mirrorWorld, ck.mirrorValid = got[0], prev, c.WorldRankOf(prev), true
	}

	// (3) Scheduled permanent deaths, detected synchronously.  The death
	// schedule is static, so the boundary doubles as a perfect failure
	// detector: a victim has mirrored everything it owes the survivors and
	// leaves for good (Die never returns); every survivor raises an
	// identical typed failure at an identical virtual time, rather than
	// discovering the absence asynchronously mid-collective — the lynchpin
	// of bit-reproducible recovery, since the unwind point (and hence every
	// clock) is then a function of virtual state only.  Deaths preempt any
	// stall or crash scheduled at the same boundary: the epoch is being
	// abandoned, and those faults re-fire at the redo epoch's boundaries.
	if inj.Deaths() {
		firstVictim := -1
		for r := 0; r < p; r++ {
			if !inj.DieAt(c.WorldRankOf(r), step) {
				continue
			}
			if r == c.Rank() {
				rec.AddDeath()
				rec.AddFaultSpan("inject", fmt.Sprintf("permanent death at step %d", step), 0)
				c.Die()
			}
			if firstVictim < 0 {
				firstVictim = r
			}
		}
		if firstVictim >= 0 {
			rec.AddFaultSpan("detect", fmt.Sprintf("rank %d dead at step %d boundary", firstVictim, step), 0)
			return c.DeadRankFailure(c.WorldRankOf(firstVictim), step,
				fmt.Sprintf("scheduled death of rank %d detected at the step-%d boundary", firstVictim, step))
		}
	}

	// (4) Scheduled stall: the rank freezes for the scheduled time.  Its
	// neighbours keep running; they only feel it through later arrivals.
	if d := inj.StallAt(c.WorldRank(), step); d > 0 {
		c.Clock().Advance(d)
		rec.AddStall(d)
		rec.AddFaultSpan("inject", fmt.Sprintf("stall %v at step %d", d, step), d)
	}

	// (5) Scheduled crash: live state dies with the rank; the respawned
	// process restores the snapshot and re-enters this superstep.
	if inj.CrashAt(c.WorldRank(), step) {
		rec.AddFaultSpan("inject", fmt.Sprintf("crash at step %d", step), 0)
		wipe(sorted)
		wipe(splitters)
		wipe(cuts)
		if part != nil {
			// The partition run survives on the store, but the crashed
			// process's cache and open handles do not.
			part.dropCache()
		}
		start := c.Clock().Now()
		if model != nil {
			c.Clock().Advance(model.RespawnCost() + model.RestoreCost(int(vbytes)) + model.ScanCost(velems))
		}
		if err := ck.restore(c, cfg, int(vbytes), sorted, part, splitters, cuts); err != nil {
			return err
		}
		d := c.Clock().Now() - start
		rec.AddRecovery(d)
		rec.AddFaultSpan("recover", fmt.Sprintf("restored step %d (%d elems)", step, pr.Desc.Elems), d)
	}
	return nil
}

// restore re-installs the snapshot into the live state after a crash: the
// primary copy if it passes its audit, else the replica — priced as the
// remote fetch of vbytes it models — and ErrCheckpointCorrupt only when
// both copies fail.  A spilled partition is repointed at the intact run.
func (ck *checkpoint[K]) restore(c *comm.Comm, cfg Config, vbytes int, sorted *[]K, part *extPartition[K], splitters *[]K, cuts *[]int) error {
	rec := cfg.Recorder
	step := int(ck.primary.Desc.Step)
	for _, replica := range []bool{false, true} {
		s := ck.primary
		if replica {
			s = ck.sent
		}
		if sum, err := ck.shardSum(s, ck.world, replica); err != nil || sum != ck.primary.Desc.Sum {
			rec.AddFaultSpan("detect", fmt.Sprintf("checkpoint copy (replica=%v) failed its audit at step %d", replica, step), 0)
			continue
		}
		if replica {
			if m := c.Model(); m != nil {
				c.Clock().Advance(m.RestoreCost(vbytes))
			}
			rec.AddFaultSpan("recover", fmt.Sprintf("restored step %d from the replica", step), 0)
		}
		install(splitters, s.Splitters)
		install(cuts, s.Cuts)
		if part != nil {
			part.reset(ckptRun(ck.world, step, replica), s.Desc.Elems)
		} else {
			install(sorted, s.Sorted)
		}
		return nil
	}
	return fmt.Errorf("%w: rank %d at step %d (primary and replica both failed the audit)", ErrCheckpointCorrupt, c.Rank(), step)
}

// adoptable reports whether this rank holds a mirror of commRank's
// snapshot on the failed communicator (the predecessor at mirror time).
func (ck *checkpoint[K]) adoptable(commRank int) bool {
	return ck != nil && ck.mirrorValid && ck.mirrorFrom == commRank
}

// adopt returns the dead ring predecessor's pre-exchange partition for the
// shrink recovery, audited against the mirrored descriptor: the resident
// mirror itself, or the predecessor's primary then replica run when its
// partition was spilled.
func (ck *checkpoint[K]) adopt() ([]K, error) {
	m := ck.mirror
	for _, replica := range []bool{false, true} {
		if replica && ck.st == nil {
			break // a resident mirror is the only surviving copy
		}
		if sum, err := ck.shardSum(m, ck.mirrorWorld, replica); err != nil || sum != m.Desc.Sum {
			continue
		}
		if ck.st == nil {
			return m.Sorted, nil
		}
		part, err := openExtPartition(ck.st, ckptRun(ck.mirrorWorld, int(m.Desc.Step), replica), ck.ops)
		if err != nil {
			return nil, err
		}
		defer part.Close()
		return part.materialize(), nil
	}
	return nil, fmt.Errorf("%w: world rank %d at step %d (every copy failed the adoption audit)", ErrCheckpointCorrupt, ck.mirrorWorld, m.Desc.Step)
}

// shardSum is the audit checksum of one copy of world's snapshot: its
// resident sorted section, or the one streamed from its ckptRun when the
// partition is spilled.
func (ck *checkpoint[K]) shardSum(s ckptShard[K], world int, replica bool) (uint64, error) {
	run := ""
	if ck.st != nil {
		run = ckptRun(world, int(s.Desc.Step), replica)
	}
	return ck.fold(s, run)
}

// fold is the checkpoint checksum: FNV-1a over the step, the section
// lengths, the sorted key images, the splitter images, and the cuts.  The
// 128-bit embedding gives every key type a stable fixed-width image.  With
// run set the sorted section streams from that store run, without
// materializing it; the sequential read also audits the run's own record
// checksum.
func (ck *checkpoint[K]) fold(s ckptShard[K], run string) (uint64, error) {
	elems := int64(len(s.Sorted))
	var r store.Reader
	if run != "" {
		var err error
		if elems, err = ck.st.Len(run); err != nil {
			return 0, err
		}
		if r, err = ck.st.Open(run); err != nil {
			return 0, err
		}
		defer r.Close()
	}
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	image := func(b xmath.U128) { word(b.Hi); word(b.Lo) }
	word(uint64(s.Desc.Step))
	word(uint64(elems))
	word(uint64(len(s.Splitters)))
	word(uint64(len(s.Cuts)))
	for _, k := range s.Sorted {
		image(ck.ops.ToBits(k))
	}
	if r != nil {
		buf := make([]xmath.U128, 4096)
		for {
			n, err := r.Read(buf)
			for _, b := range buf[:n] {
				image(b)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
		}
	}
	for _, k := range s.Splitters {
		image(ck.ops.ToBits(k))
	}
	for _, c := range s.Cuts {
		word(uint64(int64(c)))
	}
	return h, nil
}

// copyRun streams run src into a fresh sealed run dst.
func copyRun(st store.Store, src, dst string) error {
	if src == dst {
		return nil
	}
	r, err := st.Open(src)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := st.Create(dst)
	if err != nil {
		return err
	}
	buf := make([]xmath.U128, 4096)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if werr := w.Append(buf[:n]); werr != nil {
				w.Close()
				return werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// shardByteScale inflates a one-element ckptShard message to the snapshot's
// scaled byte volume (the struct's nominal wire size is just slice
// headers plus the descriptor).
func shardByteScale[K any](vbytes int64) float64 {
	structBytes := int64(reflect.TypeOf(ckptShard[K]{}).Size())
	if structBytes <= 0 || vbytes <= 0 {
		return 1
	}
	s := float64(vbytes) / float64(structBytes)
	if s < 1 {
		return 1
	}
	return s
}

// bytes is the snapshot's stored volume: the key images plus the cut
// offsets, whatever the sorted section's backing.
func (ck *checkpoint[K]) bytes(ops keys.Ops[K]) int {
	pr := &ck.primary
	return (int(pr.Desc.Elems)+len(pr.Splitters))*ops.Bytes() + len(pr.Cuts)*8
}

// snapshot copies *src into dst's storage (reused across boundaries).
func snapshot[T any](dst []T, src *[]T) []T {
	if src == nil {
		return dst[:0]
	}
	return append(dst[:0], *src...)
}

// wipe models the loss of a crashed rank's volatile memory.
func wipe[T any](s *[]T) {
	if s != nil {
		*s = nil
	}
}

// install re-installs a snapshot copy into the live state.
func install[T any](dst *[]T, src []T) {
	if dst != nil {
		*dst = append([]T(nil), src...)
	}
}
