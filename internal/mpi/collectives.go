package mpi

import (
	"mpi4spark/internal/vtime"
)

// collTagBase is the start of the tag space reserved for collectives. User
// tags (including AllocTag results) stay below it.
const collTagBase = 1 << 30

// collBlock is the tag block reserved per collective instance (one tag per
// round/step inside the collective).
const collBlock = 1 << 12

// nextCollBlock returns the tag block for rank's next collective on this
// communicator. MPI requires every rank to invoke collectives on a
// communicator in the same order, so rank-local counters agree on the
// instance number and the derived tag block is globally consistent.
func (c *Comm) nextCollBlock(rank int) int {
	c.collMu.Lock()
	if c.collSeq == nil {
		c.collSeq = make(map[int]int64)
	}
	s := c.collSeq[rank]
	c.collSeq[rank] = s + 1
	c.collMu.Unlock()
	return collTagBase + int(s%((1<<20)/1))*collBlock
}

// Barrier blocks until every rank in the communicator has entered it, using
// the dissemination algorithm. It returns the caller's exit time, or the
// world's abort error (see World.Abort).
func (h *Handle) Barrier(at vtime.Stamp) (vtime.Stamp, error) {
	n := h.Size()
	if n == 1 {
		return at, h.comm.world.aborted()
	}
	base := h.comm.nextCollBlock(h.rank)
	vt := at
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := (h.rank + k) % n
		src := (h.rank - k + n) % n
		sreq := h.Isend(dst, base+round, nil, vt)
		_, st := h.Recv(src, base+round, vt)
		if err := h.comm.world.aborted(); err != nil {
			return vt, err
		}
		vt = vtime.Max(sreq.Wait(vt), st.VT)
		round++
	}
	return vt, nil
}

// Allgather collects every rank's contribution at every rank using the ring
// algorithm (n-1 steps, each shifting the newest block to the right
// neighbour), or returns the world's abort error (see World.Abort). The
// launcher uses it to exchange executor launch arguments.
func (h *Handle) Allgather(data []byte, at vtime.Stamp) ([][]byte, vtime.Stamp, error) {
	n := h.Size()
	out := make([][]byte, n)
	out[h.rank] = data
	if n == 1 {
		return out, at, h.comm.world.aborted()
	}
	base := h.comm.nextCollBlock(h.rank)
	vt := at
	cur := data
	for step := 1; step < n; step++ {
		dst := (h.rank + 1) % n
		src := (h.rank - 1 + n) % n
		sreq := h.Isend(dst, base+step, cur, vt)
		d, st := h.Recv(src, base+step, vt)
		if err := h.comm.world.aborted(); err != nil {
			return nil, vt, err
		}
		idx := (h.rank - step + n) % n
		out[idx] = d
		cur = d
		vt = vtime.Max(sreq.Wait(vt), st.VT)
	}
	return out, vt, nil
}
