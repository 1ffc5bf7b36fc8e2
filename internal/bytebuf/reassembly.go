package bytebuf

import (
	"errors"
	"fmt"
)

// ErrMalformedChunk fails a block whose chunk contradicts the block it
// announces: see Reassembly.Fold.
var ErrMalformedChunk = errors.New("malformed chunk")

// Reassembly puts a multi-part body back together: a fetched block from the
// chunks it was served in, an MPI-Optimized body from its eager-sized pieces,
// a collective transfer from its chunks (each carved by Carve). It is the
// only code that does, and Fold the only code that checks a chunk against
// its block. Message bodies cross the simulated wire by reference, so the
// parts of one body normally arrive as consecutive windows of the sender's
// buffer: the first part is adopted, and each part that starts where the
// last one ended only lengthens the slice. Nothing is copied and the result
// aliases the sent body, as a single-part body always has. A part from
// anywhere else (a fault plane's corrupted copy) moves the body into a
// buffer of its own; memory behind an adopted part is never written. The
// zero value is ready for use.
type Reassembly struct {
	data    []byte
	owned   bool   // data is this value's own buffer, not an adopted window
	total   uint64 // the size the first folded chunk announced
	started bool   // a chunk has been folded
}

// Add appends the body's next part. A buffer of the body's own starts at the
// bytes the parts so far hold, not at the size the wire announces for the
// body, and grows as append grows it.
func (r *Reassembly) Add(chunk []byte) {
	n, m := len(r.data), len(chunk)
	switch {
	case n == 0 && !r.owned:
		r.data = chunk
	case !r.owned && m > 0 && cap(r.data)-n >= m && &r.data[:n+1][n] == &chunk[0]:
		r.data = r.data[:n+m]
	default:
		if !r.owned {
			r.data, r.owned = append(make([]byte, 0, n+m), r.data...), true
		}
		r.data = append(r.data, chunk...)
	}
}

// Fold applies one chunk that announces itself as bytes [offset,
// offset+len(chunk)) of a total-byte block, and reports whether the block is
// complete. Offset and total are wire data, so the chunk is checked first: a
// chunk that starts past total or overruns it, or a total other than the
// first chunk's, fails the block with ErrMalformedChunk. A chunk whose offset
// is not the append cursor is a replay (its bytes are already folded, or it
// belongs to no layout this block can have): it is dropped and changes
// nothing. Any other chunk is appended with Add, and the block is complete
// when the cursor reaches total.
func (r *Reassembly) Fold(offset, total uint64, chunk []byte) (done bool, err error) {
	if offset > total || uint64(len(chunk)) > total-offset || (r.started && total != r.total) {
		return false, fmt.Errorf("%w: offset %d + %d bytes of %d, block is %d",
			ErrMalformedChunk, offset, len(chunk), total, r.total)
	}
	if offset != uint64(len(r.data)) {
		return false, nil
	}
	r.Add(chunk)
	r.total, r.started = total, true
	return uint64(len(r.data)) == total, nil
}

// Carve is the mirror of Fold, and the only code that cuts a body into
// chunks: served span bytes at a time, a size-byte body is n = ⌈size/span⌉
// windows, each span bytes but the last. An empty body is one empty window,
// so that the receiver still learns its size, and a span below one leaves
// the body whole. Carve returns n and the bounds [lo, hi) of window i.
func Carve(size, span, i int) (n, lo, hi int) {
	if span < 1 || size <= span {
		return 1, 0, size
	}
	lo = i * span
	return (size + span - 1) / span, lo, min(lo+span, size)
}

// Bytes returns the parts added so far as one slice, read-only like the
// parts it may alias. Its capacity is its length, so that an append
// reallocates instead of writing into the sender's memory.
func (r *Reassembly) Bytes() []byte { return r.data[:len(r.data):len(r.data)] }
