package bytebuf

// Reassembly puts a block back together from the chunks it was served in.
// Message bodies cross the simulated wire by reference, so the chunks of
// one served block normally arrive as consecutive windows of the server's
// buffer: the first chunk is adopted, and each chunk that starts where the
// last one ended only lengthens the slice. Nothing is copied and the result
// aliases the served block, as a single-chunk block always has. A chunk from
// anywhere else (a fault plane's corrupted copy) moves the block into a
// buffer of its own, exactly the block's size; memory behind an adopted
// chunk is never written. The zero value is ready for use.
type Reassembly struct {
	data  []byte
	owned bool // data is this value's own buffer, not an adopted window
}

// Add appends the block's next chunk. total is the size of the whole block.
func (r *Reassembly) Add(chunk []byte, total uint64) {
	n, m := len(r.data), len(chunk)
	switch {
	case n == 0 && !r.owned:
		r.data = chunk
	case !r.owned && m > 0 && cap(r.data)-n >= m && &r.data[:n+1][n] == &chunk[0]:
		r.data = r.data[:n+m]
	default:
		if !r.owned {
			r.data, r.owned = append(make([]byte, 0, total), r.data...), true
		}
		r.data = append(r.data, chunk...)
	}
}

// Bytes returns the chunks added so far as one slice, read-only like the
// chunks it may alias. Its capacity is its length, so that an append
// reallocates instead of writing into the sender's memory.
func (r *Reassembly) Bytes() []byte { return r.data[:len(r.data):len(r.data)] }
