package comm

import (
	"fmt"
	"math/bits"
)

// The collectives below are the operations the paper's algorithms are made
// of, implemented with the standard algorithms of production MPI libraries:
// binomial trees (Bcast, Reduce, Gather, Scatter), recursive doubling with
// a non-power-of-two fold (Allreduce), gather+broadcast (Allgather), a
// dissemination barrier, and a 1-factor-style pairwise exchange (Alltoall).
// None of them assumes a power-of-two communicator — the paper stresses
// that its algorithm is free of such constraints (§VI-B).
//
// All of them are collective: every rank of the communicator must call them
// in the same order with consistent arguments.

// Barrier blocks until every rank of c has entered it (dissemination
// algorithm, ceil(log2 P) rounds).
func Barrier(c *Comm) {
	base := c.nextSeq()
	p := c.Size()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		c.send((c.rank+k)%p, base+round, struct{}{}, 0, 1)
		c.recv((c.rank-k+p)%p, base+round)
	}
}

// Bcast distributes root's data to every rank over a binomial tree and
// returns it.  Non-root ranks should pass nil.
func Bcast[T any](c *Comm, root int, data []T) []T {
	base := c.nextSeq()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: Bcast root %d out of range", root))
	}
	if p == 1 {
		return data
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (c.rank - mask + p) % p
			data = recvSlice[T](c, src, base)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (c.rank + mask) % p
			sendSlice(c, dst, base, data, 1)
		}
		mask >>= 1
	}
	return data
}

// BcastOne distributes a single value from root to every rank.
func BcastOne[T any](c *Comm, root int, v T) T {
	out := Bcast(c, root, []T{v})
	return out[0]
}

// combine folds other into acc elementwise.
func combine[T any](acc, other []T, op func(a, b T) T) {
	if len(acc) != len(other) {
		panic(fmt.Sprintf("comm: reduction length mismatch: %d vs %d", len(acc), len(other)))
	}
	for i := range acc {
		acc[i] = op(acc[i], other[i])
	}
}

// Reduce combines the data vectors of all ranks elementwise with op
// (which must be associative and commutative) over a binomial tree and
// returns the result at root; other ranks get nil.
func Reduce[T any](c *Comm, root int, data []T, op func(a, b T) T) []T {
	base := c.nextSeq()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: Reduce root %d out of range", root))
	}
	acc := make([]T, len(data))
	copy(acc, data)
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (c.rank - mask + p) % p
			sendSlice(c, dst, base, acc, 1)
			return nil
		}
		if rel|mask < p {
			src := (c.rank + mask) % p
			other := recvSlice[T](c, src, base)
			combine(acc, other, op)
		}
	}
	return acc
}

// Allreduce combines all ranks' data vectors elementwise with op (which
// must be associative and commutative) and returns the result on every
// rank.  Recursive doubling with the standard fold for non-power-of-two
// communicators: ceil(log2 P)+2 rounds.
func Allreduce[T any](c *Comm, data []T, op func(a, b T) T) []T {
	acc := make([]T, len(data))
	copy(acc, data)
	return AllreduceInPlace(c, acc, op)
}

// AllreduceInPlace is Allreduce accumulating into data itself: on return,
// data holds the global reduction (and is also returned for convenience).
// The schedule, message counts and priced bytes are identical to Allreduce;
// only the caller-side result allocation is gone — the variant hot loops
// (splitter refinement's per-round histograms, whose payload shrinks with
// the active set) call with a buffer reused round after round.  sendSlice
// copies outgoing payloads, so mutating data between rounds is safe.
func AllreduceInPlace[T any](c *Comm, data []T, op func(a, b T) T) []T {
	base := c.nextSeq()
	p := c.Size()
	if p == 1 {
		return data
	}
	pof2 := 1 << (bits.Len(uint(p)) - 1)
	rem := p - pof2
	logp := bits.Len(uint(pof2)) - 1
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		// Fold: hand the vector to the odd neighbour and wait for the result.
		sendSlice(c, c.rank+1, base, data, 1)
		copy(data, recvSlice[T](c, c.rank+1, base+1+logp))
		return data
	case c.rank < 2*rem:
		other := recvSlice[T](c, c.rank-1, base)
		combine(data, other, op)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}
	round := 1
	for mask := 1; mask < pof2; mask <<= 1 {
		partnerNew := newRank ^ mask
		partner := partnerNew + rem
		if partnerNew < rem {
			partner = partnerNew*2 + 1
		}
		sendSlice(c, partner, base+round, data, 1)
		other := recvSlice[T](c, partner, base+round)
		combine(data, other, op)
		round++
	}
	if c.rank < 2*rem {
		sendSlice(c, c.rank-1, base+round, data, 1)
	}
	return data
}

// AllreduceOne combines a single value across all ranks.
func AllreduceOne[T any](c *Comm, v T, op func(a, b T) T) T {
	return Allreduce(c, []T{v}, op)[0]
}

// rankBlock tags a data block with its originating rank while it travels
// through gather/allgather trees.
type rankBlock[T any] struct {
	Rank int
	Data []T
}

func blocksBytes[T any](blocks []rankBlock[T]) int {
	n := 0
	for _, b := range blocks {
		n += len(b.Data)*elemBytes[T]() + 16
	}
	return n
}

// Gather collects every rank's data at root (binomial tree).  At root the
// result is indexed by rank; other ranks get nil.  Blocks may have
// different lengths (MPI_Gatherv).
func Gather[T any](c *Comm, root int, mine []T) [][]T {
	base := c.nextSeq()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: Gather root %d out of range", root))
	}
	own := make([]T, len(mine))
	copy(own, mine)
	blocks := []rankBlock[T]{{Rank: c.rank, Data: own}}
	rel := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (c.rank - mask + p) % p
			c.send(dst, base, blocks, blocksBytes(blocks), 1)
			return nil
		}
		if rel|mask < p {
			src := (c.rank + mask) % p
			e := c.recv(src, base)
			blocks = append(blocks, e.payload.([]rankBlock[T])...)
		}
	}
	out := make([][]T, p)
	for _, b := range blocks {
		out[b.Rank] = b.Data
	}
	return out
}

// bcastBlocks broadcasts a block list from root (binomial tree), preserving
// per-block byte accounting.
func bcastBlocks[T any](c *Comm, root int, blocks []rankBlock[T]) []rankBlock[T] {
	base := c.nextSeq()
	p := c.Size()
	if p == 1 {
		return blocks
	}
	rel := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (c.rank - mask + p) % p
			blocks = c.recv(src, base).payload.([]rankBlock[T])
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (c.rank + mask) % p
			c.send(dst, base, blocks, blocksBytes(blocks), 1)
		}
		mask >>= 1
	}
	return blocks
}

// Allgather collects every rank's data on every rank, indexed by rank
// (gather to rank 0 + broadcast: O(log P) rounds).  Blocks may have
// different lengths (MPI_Allgatherv).
func Allgather[T any](c *Comm, mine []T) [][]T {
	p := c.Size()
	own := make([]T, len(mine))
	copy(own, mine)
	blocks := []rankBlock[T]{{Rank: c.rank, Data: own}}
	// Inline gather to 0.
	gbase := c.nextSeq()
	for mask := 1; mask < p; mask <<= 1 {
		if c.rank&mask != 0 {
			c.send(c.rank-mask, gbase, blocks, blocksBytes(blocks), 1)
			blocks = nil
			break
		}
		if c.rank|mask < p {
			e := c.recv(c.rank+mask, gbase)
			blocks = append(blocks, e.payload.([]rankBlock[T])...)
		}
	}
	blocks = bcastBlocks(c, 0, blocks)
	out := make([][]T, p)
	for _, b := range blocks {
		out[b.Rank] = b.Data
	}
	return out
}

// AllgatherOne collects one value per rank on every rank, indexed by rank.
func AllgatherOne[T any](c *Comm, v T) []T {
	all := Allgather(c, []T{v})
	out := make([]T, len(all))
	for i, b := range all {
		out[i] = b[0]
	}
	return out
}

// Scatter distributes root's per-rank blocks over a binomial tree and
// returns this rank's block.  Non-root ranks pass nil.  Blocks may have
// different lengths (MPI_Scatterv).
func Scatter[T any](c *Comm, root int, all [][]T) []T {
	base := c.nextSeq()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("comm: Scatter root %d out of range", root))
	}
	rel := (c.rank - root + p) % p
	var blocks []rankBlock[T]
	if c.rank == root {
		if len(all) != p {
			panic(fmt.Sprintf("comm: Scatter needs %d blocks, got %d", p, len(all)))
		}
		blocks = make([]rankBlock[T], p)
		for i, b := range all {
			own := make([]T, len(b))
			copy(own, b)
			blocks[i] = rankBlock[T]{Rank: i, Data: own}
		}
	}
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (c.rank - mask + p) % p
			blocks = c.recv(src, base).payload.([]rankBlock[T])
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (c.rank + mask) % p
			// Blocks for the child's subtree: relative ranks [rel+mask, rel+2*mask).
			var mineBlocks, childBlocks []rankBlock[T]
			for _, b := range blocks {
				brel := (b.Rank - root + p) % p
				if brel >= rel+mask {
					childBlocks = append(childBlocks, b)
				} else {
					mineBlocks = append(mineBlocks, b)
				}
			}
			c.send(dst, base, childBlocks, blocksBytes(childBlocks), 1)
			blocks = mineBlocks
		}
		mask >>= 1
	}
	for _, b := range blocks {
		if b.Rank == c.rank {
			return b.Data
		}
	}
	return nil
}

// Alltoall exchanges blocks[i] to rank i and returns the blocks received,
// indexed by sender (pairwise exchange, P rounds — the large-message
// algorithm; §VI-E1 discusses the trade-off versus store-and-forward).
func Alltoall[T any](c *Comm, blocks [][]T) [][]T {
	return AlltoallScaled(c, blocks, 1)
}

// AlltoallScaled is Alltoall with payloads priced at byteScale times their
// real size (bulk-data pricing for reduced-scale experiments).
func AlltoallScaled[T any](c *Comm, blocks [][]T, byteScale float64) [][]T {
	base := c.nextSeq()
	p := c.Size()
	if len(blocks) != p {
		panic(fmt.Sprintf("comm: Alltoall needs %d blocks, got %d", p, len(blocks)))
	}
	out := make([][]T, p)
	for i := 0; i < p; i++ {
		dst := (c.rank + i) % p
		src := (c.rank - i + p) % p
		sendSlice(c, dst, base+i, blocks[dst], byteScale)
		out[src] = recvSlice[T](c, src, base+i)
	}
	return out
}

// Alltoallv exchanges a contiguous buffer partitioned by sendCounts
// (sendCounts[i] elements go to rank i) and returns the received buffer in
// rank order with its counts — MPI_Alltoallv, the single data-movement round
// of the sorting algorithms (§V-B).
func Alltoallv[T any](c *Comm, data []T, sendCounts []int, byteScale float64) ([]T, []int) {
	p := c.Size()
	if len(sendCounts) != p {
		panic(fmt.Sprintf("comm: Alltoallv needs %d counts, got %d", p, len(sendCounts)))
	}
	blocks := make([][]T, p)
	off := 0
	for i, n := range sendCounts {
		if n < 0 {
			panic("comm: negative send count")
		}
		if off+n > len(data) {
			panic("comm: send counts exceed buffer length")
		}
		blocks[i] = data[off : off+n]
		off += n
	}
	if off != len(data) {
		panic(fmt.Sprintf("comm: send counts sum to %d, buffer has %d", off, len(data)))
	}
	recvBlocks := AlltoallScaled(c, blocks, byteScale)
	recvCounts := make([]int, p)
	total := 0
	for i, b := range recvBlocks {
		recvCounts[i] = len(b)
		total += len(b)
	}
	out := make([]T, 0, total)
	for _, b := range recvBlocks {
		out = append(out, b...)
	}
	return out, recvCounts
}
