package main

import (
	"bufio"
	"fmt"
	"io"
)

// digest is an order-independent fingerprint of a key multiset: the count,
// the wrapping sum and the xor.  A sort must preserve it exactly.
type digest struct {
	n        int
	sum, xor uint64
}

func digestOf(ks []uint64) digest {
	d := digest{n: len(ks)}
	for _, k := range ks {
		d.sum += k
		d.xor ^= k
	}
	return d
}

// checker verifies one sort output piece by piece (rank partitions or a
// streamed result) against the digest of its input, trusting nothing the
// program reports about its own output.
type checker struct {
	want digest
	got  digest
	last uint64
	bad  error
}

func newChecker(want digest) *checker { return &checker{want: want} }

// add folds the next piece of output, in global order, into the check.
func (c *checker) add(ks []uint64) {
	for _, k := range ks {
		if c.got.n > 0 && k < c.last && c.bad == nil {
			c.bad = fmt.Errorf("out of order at element %d: %d after %d", c.got.n, k, c.last)
		}
		c.last = k
		c.got.n++
		c.got.sum += k
		c.got.xor ^= k
	}
}

// err reports the first violation: order, element count or checksum.
func (c *checker) err() error {
	switch {
	case c.bad != nil:
		return c.bad
	case c.got.n != c.want.n:
		return fmt.Errorf("element count %d, want %d", c.got.n, c.want.n)
	case c.got.sum != c.want.sum || c.got.xor != c.want.xor:
		return fmt.Errorf("checksum (sum %x, xor %x), want (sum %x, xor %x)",
			c.got.sum, c.got.xor, c.want.sum, c.want.xor)
	}
	return nil
}

// checkSorted checks a whole output against the digest of its input.
func checkSorted(out []uint64, want digest) error {
	c := newChecker(want)
	c.add(out)
	return c.err()
}

// parseKeys reads a text result (one decimal key per line) into dst[:0].
func parseKeys(r io.Reader, dst []uint64) ([]uint64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	dst = dst[:0]
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if line[len(line)-1] != '\n' {
				return dst, fmt.Errorf("result truncated after %d keys", len(dst))
			}
			v, perr := parseUint(line[:len(line)-1])
			if perr != nil {
				return dst, fmt.Errorf("result line %d: %w", len(dst)+1, perr)
			}
			dst = append(dst, v)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, fmt.Errorf("reading result: %w", err)
		}
	}
}

// parseUint parses a non-empty decimal uint64 without allocating.
func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, fmt.Errorf("bad key %q", b)
	}
	var v uint64
	for _, ch := range b {
		d := uint64(ch - '0')
		if d > 9 {
			return 0, fmt.Errorf("bad key %q", b)
		}
		nv := v*10 + d
		if v > (1<<64-1)/10 || nv < v*10 {
			return 0, fmt.Errorf("key %q overflows uint64", b)
		}
		v = nv
	}
	return v, nil
}
