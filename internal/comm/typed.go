package comm

import (
	"fmt"
	"reflect"
)

// elemBytes returns the in-memory size of one element of type T, used for
// communication-volume accounting.
func elemBytes[T any]() int {
	var z T
	return int(reflect.TypeOf(&z).Elem().Size())
}

// checkUserTag validates an application-supplied tag: non-negative and
// below the library-reserved space (see UserTagLimit).
func checkUserTag(tag int) {
	if tag < 0 {
		panic("comm: user tags must be non-negative")
	}
	if tag >= UserTagLimit {
		panic(fmt.Sprintf("comm: tag %d is in the library-reserved space [%d, ∞): "+
			"user tags must be below comm.UserTagLimit (the fused exchange and rma "+
			"notification protocols own the tags above it)", tag, UserTagLimit))
	}
}

// SendScaled delivers a copy of data to dst under the given tag (tag in
// [0, UserTagLimit)), with the payload priced at byteScale times its real
// size in the network cost model — byteScale > 1 when experiments execute
// on reduced data that stands in for a paper-scale volume
// (Config.VirtualScale).  Sends are eager: they buffer at the receiver and
// never block.
func SendScaled[T any](c *Comm, dst, tag int, data []T, byteScale float64) {
	checkUserTag(tag)
	sendSlice(c, dst, tag, data, byteScale)
}

// Recv blocks for a message from src (or AnySource) under tag and returns
// its payload.  The returned slice is owned by the caller.
func Recv[T any](c *Comm, src, tag int) []T {
	checkUserTag(tag)
	return c.recv(src, tag).payload.([]T)
}

// sendSlice copies data (senders may reuse their buffers immediately, and
// tree collectives may deliver one buffer to several ranks) and ships it.
func sendSlice[T any](c *Comm, dst, tag int, data []T, byteScale float64) {
	cp := make([]T, len(data))
	copy(cp, data)
	c.send(dst, tag, cp, len(data)*elemBytes[T](), byteScale)
}

// recvSlice receives a []T payload.
func recvSlice[T any](c *Comm, src, tag int) []T {
	return c.recv(src, tag).payload.([]T)
}
