package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// The collective layer's constants.
const (
	// ChunkBytes bounds one collective chunk (the pipelining granularity of
	// the chain broadcast and the ring steps) on every transport: the
	// MPI-Optimized one splits each chunk's body into eager-sized MPI pieces
	// itself.
	ChunkBytes = 1 << 20
	// SmallLimit is the payload size at or below which broadcast and
	// allreduce use single-message binomial trees (latency-optimal) instead
	// of chunked pipelines (bandwidth-optimal).
	SmallLimit = 64 << 10
	// sendCost is the per-chunk sender CPU cost, matching the shuffle stream
	// manager's per-chunk serve cost.
	sendCost = 3 * time.Microsecond
	// combineNsPerByte is the per-byte CPU cost of folding one received
	// buffer into the local accumulator.
	combineNsPerByte = 0.1
)

// Tag layout: the low 20 bits index the chunk within a transfer, the bits
// above it identify the transfer edge (tree level or ring step), and the
// top bit separates the broadcast phase of a small allreduce from its
// reduce phase.
const (
	tagChunkBits        = 20
	bcastTagBit  uint32 = 1 << 31
)

// ReduceOp combines byte payloads. Combine folds src into dst — it may
// grow and return a new dst when src is longer, and must treat a short or
// empty operand as the identity (zero-extension). Align is the byte
// alignment ring-allreduce segment and chunk boundaries snap to so
// element-wise ops never split an element (1 means none).
type ReduceOp struct {
	Align   int
	Combine func(dst, src []byte) []byte
}

// Float64Sum sums big-endian float64 vectors element-wise; a shorter
// operand is zero-extended. Trailing bytes beyond the last full word do
// not combine — use payload lengths that are multiples of 8.
var Float64Sum = ReduceOp{Align: 8, Combine: combineFloat64Sum}

func combineFloat64Sum(dst, src []byte) []byte {
	if len(src) > len(dst) {
		grown := make([]byte, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i+8 <= len(src); i += 8 {
		a := math.Float64frombits(binary.BigEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.BigEndian.Uint64(src[i:]))
		binary.BigEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
	return dst
}

// EncodeFloat64s renders v as the big-endian byte payload Float64Sum
// operates on.
func EncodeFloat64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// DecodeFloat64s parses an EncodeFloat64s payload.
func DecodeFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out
}

var opSeq atomic.Int64

// NextOpID allocates a process-global collective operation id. Every rank
// of one operation must use the same id.
func NextOpID() int64 { return opSeq.Add(1) }

// Group is a fixed set of ranks (stations) executing collective
// operations together. Rank i is members[i]; algorithms address peers
// through the stations' wire addresses, so the group works across every
// transport the environments were built on.
type Group struct {
	members  []*Station
	addrs    []fabric.Addr
	observer func(OpInfo)
}

// OpInfo describes one completed collective operation for observers:
// the op id, its algorithm family ("bcast" | "reduce" | "allreduce"),
// the per-rank payload size, the group width, and the first error (nil
// on success).
type OpInfo struct {
	Op    int64
	Kind  string
	Bytes int
	Ranks int
	Err   error
}

// SetObserver installs a hook notified once per Run, after the op
// completes on every rank. The driver's observability layer uses it to
// emit CollectiveOp events. Install before running ops; not safe to swap
// concurrently with Run.
func (g *Group) SetObserver(f func(OpInfo)) { g.observer = f }

// NewGroup builds a group over the given stations (rank order).
func NewGroup(members []*Station) *Group {
	g := &Group{members: members}
	g.addrs = make([]fabric.Addr, len(members))
	for i, st := range members {
		g.addrs[i] = st.Addr()
	}
	return g
}

// Size returns the number of ranks.
func (g *Group) Size() int { return len(g.members) }

// Abort fails op on every member station.
func (g *Group) Abort(op int64, err error) {
	for _, st := range g.members {
		st.AbortOp(op, err)
	}
}

// Run drives one collective operation: fn(rank) runs concurrently for
// every rank, and any rank's failure aborts the op on all members so no
// sibling blocks forever on chunks a failed rank will never send. kind
// and bytes describe the op for the group's observer (see OpInfo); they
// do not affect execution. Run returns the lowest failing rank's error.
func (g *Group) Run(op int64, kind string, bytes int, fn func(rank int) error) error {
	var ranks vtime.Group
	for r := range g.members {
		ranks.Go(func() error {
			err := fn(r)
			if err != nil {
				g.Abort(op, err)
			}
			return err
		})
	}
	first := ranks.Wait()
	if g.observer != nil {
		g.observer(OpInfo{Op: op, Kind: kind, Bytes: bytes, Ranks: len(g.members), Err: first})
	}
	return first
}

// realRank maps a virtual rank (root-relative) back to a group rank.
func realRank(vr, root, n int) int { return (vr + root) % n }

// binomial returns vr's parent (-1 at the tree root, vr 0) and children
// in the binomial tree over n virtual ranks, children largest-subtree
// first (the standard MPICH ordering).
func binomial(vr, n int) (parent int, children []int) {
	parent = -1
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			parent = vr - mask
			break
		}
		mask <<= 1
	}
	for m := mask >> 1; m > 0; m >>= 1 {
		if vr+m < n {
			children = append(children, vr+m)
		}
	}
	return parent, children
}

// chunkSpan returns the chunk size used to split a transfer, snapped down
// to align so element-wise combines never split an element.
func chunkSpan(align int) int {
	if align > 1 {
		return max(ChunkBytes-ChunkBytes%align, align)
	}
	return ChunkBytes
}

// sendChunk ships one chunk, charging sendCost on the rank's send clock.
func (g *Group) sendChunk(rank, dst int, op int64, tag uint32, total, offset int, body []byte, at vtime.Stamp, chunks *metrics.Counter) (vtime.Stamp, error) {
	st := g.members[rank]
	svt := st.sendClock.ObserveAndAdvance(at, sendCost)
	m := &rpc.CollectiveChunk{
		OpID: op, Tag: tag, Src: uint32(rank),
		Total: uint64(total), Offset: uint64(offset),
		BodyRef: rpc.BodyRef{Body: body},
	}
	if _, err := st.env.SendCollective(g.addrs[dst], m, svt); err != nil {
		return svt, fmt.Errorf("collective: rank %d send to %d: %w", rank, dst, err)
	}
	chunks.Inc()
	return svt, nil
}

// sendRange streams data to dst as the chunks bytebuf.Carve cuts it into,
// chunk i tagged tagBase|i.
func (g *Group) sendRange(rank, dst int, op int64, tagBase uint32, data []byte, span int, at vtime.Stamp, chunks *metrics.Counter) (vtime.Stamp, error) {
	n, _, _ := bytebuf.Carve(len(data), span, 0)
	vt := at
	for i := 0; i < n; i++ {
		_, lo, hi := bytebuf.Carve(len(data), span, i)
		var err error
		vt, err = g.sendChunk(rank, dst, op, tagBase|uint32(i), len(data), lo, data[lo:hi], vt, chunks)
		if err != nil {
			return vt, err
		}
	}
	return vt, nil
}

// combineCost models folding n bytes into the local accumulator.
func combineCost(n int) time.Duration {
	return time.Duration(combineNsPerByte * float64(n))
}

// recvRange receives the chunks of one tagged transfer into dst[lo:hi],
// combining with rop when non-nil (else copying). It returns the local
// completion time.
func (g *Group) recvRange(rank int, op int64, tagBase uint32, dst []byte, lo, hi, span int, rop *ReduceOp, at vtime.Stamp) (vtime.Stamp, error) {
	st := g.members[rank]
	n, _, _ := bytebuf.Carve(hi-lo, span, 0)
	vt := at
	for i := 0; i < n; i++ {
		d, err := st.recv(op, tagBase|uint32(i))
		if err != nil {
			return vt, err
		}
		vt = vtime.Max(vt, d.vt)
		if len(d.data) > 0 {
			seg := dst[lo+d.offset : lo+d.offset+len(d.data)]
			if rop != nil {
				rop.Combine(seg, d.data)
				vt = vt.Add(combineCost(len(d.data)))
			} else {
				copy(seg, d.data)
			}
		}
	}
	return vt, nil
}

// recvPayload receives one whole tagged transfer of unknown size (the
// first chunk announces the total) and reassembles it.
func (g *Group) recvPayload(rank int, op int64, tagBase uint32, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	st := g.members[rank]
	var asm bytebuf.Reassembly
	vt := at
	for i := 0; ; i++ {
		d, err := st.recv(op, tagBase|uint32(i))
		if err != nil {
			return nil, at, err
		}
		vt = vtime.Max(vt, d.vt)
		done, err := asm.Fold(uint64(d.offset), uint64(d.total), d.data)
		if err != nil {
			return nil, at, err
		}
		if done {
			return asm.Bytes(), vt, nil
		}
	}
}

var (
	bcastCtrs     = ctrNames{ops: metrics.CollectiveBcastOps, bytes: metrics.CollectiveBcastBytes, chunks: metrics.CollectiveBcastChunks}
	reduceCtrs    = ctrNames{ops: metrics.CollectiveReduceOps, bytes: metrics.CollectiveReduceBytes, chunks: metrics.CollectiveReduceChunks}
	allreduceCtrs = ctrNames{ops: metrics.CollectiveAllreduceOps, bytes: metrics.CollectiveAllreduceBytes, chunks: metrics.CollectiveAllreduceChunks}
)

type ctrNames struct{ ops, bytes, chunks string }

// Bcast broadcasts root's payload to every rank of the group. Every rank
// calls it with the same op and root; only root's data is read. Payloads
// at or below SmallLimit travel a binomial tree as one message per edge;
// larger ones stream down a pipelined chain in ChunkBytes pieces, so the
// root's link carries the payload once — O(B), not O(E·B). The result is
// read-only and garbage-collected, with no capacity past its length: it is
// root's own data at root and elsewhere may alias it (chunks cross by
// reference), so root's data must not be modified once sent.
func (g *Group) Bcast(op int64, rank, root int, data []byte, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	out, vt, err := g.bcast(op, rank, root, data, 0, metrics.GetCounter(bcastCtrs.chunks), at)
	if err != nil {
		return nil, vt, err
	}
	if rank == root {
		metrics.GetCounter(bcastCtrs.ops).Inc()
		metrics.GetCounter(bcastCtrs.bytes).Add(int64(len(data)))
	}
	g.members[rank].retire(op)
	return out, vt, nil
}

func (g *Group) bcast(op int64, rank, root int, data []byte, tagBit uint32, chunks *metrics.Counter, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	n := g.Size()
	if n == 1 {
		return slices.Clip(data), at, nil
	}
	span := chunkSpan(1)
	if rank == root {
		total := len(data)
		vt := at
		if total <= SmallLimit {
			_, children := binomial(0, n)
			for _, c := range children {
				var err error
				vt, err = g.sendChunk(rank, realRank(c, root, n), op, tagBit, total, 0, data, vt, chunks)
				if err != nil {
					return nil, vt, err
				}
			}
		} else {
			var err error
			vt, err = g.sendRange(rank, realRank(1, root, n), op, tagBit, data, span, vt, chunks)
			if err != nil {
				return nil, vt, err
			}
		}
		return slices.Clip(data), vt, nil
	}

	// The first chunk announces the total, which picks the shape: a binomial
	// tree forwards its only chunk to this rank's subtree, a chain forwards
	// chunk i to the right before waiting for chunk i+1 — the pipeline that
	// keeps every link busy. Either way a rank forwards the delivery (the
	// sender's slice, by reference) and reassembles what it received.
	st := g.members[rank]
	vr := (rank - root + n) % n
	d, err := st.recv(op, tagBit)
	if err != nil {
		return nil, at, err
	}
	var next []int
	if d.total <= SmallLimit {
		_, children := binomial(vr, n)
		for _, c := range children {
			next = append(next, realRank(c, root, n))
		}
	} else if vr+1 < n {
		next = []int{realRank(vr+1, root, n)}
	}
	var asm bytebuf.Reassembly
	vt := at
	for i := 0; ; i++ {
		vt = vtime.Max(vt, d.vt)
		done, err := asm.Fold(uint64(d.offset), uint64(d.total), d.data)
		if err != nil {
			return nil, vt, err
		}
		for _, to := range next {
			vt, err = g.sendChunk(rank, to, op, tagBit|uint32(i), d.total, d.offset, d.data, vt, chunks)
			if err != nil {
				return nil, vt, err
			}
		}
		if done {
			return asm.Bytes(), vt, nil
		}
		if d, err = st.recv(op, tagBit|uint32(i+1)); err != nil {
			return nil, vt, err
		}
	}
}

// Reduce folds every rank's payload into root through a binomial tree,
// combining with rop (which must be commutative and associative, like an
// MPI reduction op). Edge transfers are chunked at ChunkBytes. The result
// is returned at root only (a fresh slice); other ranks get nil.
func (g *Group) Reduce(op int64, rank, root int, data []byte, rop ReduceOp, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	acc, vt, err := g.reduce(op, rank, root, data, rop, 0, metrics.GetCounter(reduceCtrs.chunks), at)
	if err != nil {
		return nil, vt, err
	}
	if rank == root {
		metrics.GetCounter(reduceCtrs.ops).Inc()
		metrics.GetCounter(reduceCtrs.bytes).Add(int64(len(acc)))
	}
	g.members[rank].retire(op)
	if rank != root {
		return nil, vt, nil
	}
	return acc, vt, nil
}

func (g *Group) reduce(op int64, rank, root int, data []byte, rop ReduceOp, tagBit uint32, chunks *metrics.Counter, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	n := g.Size()
	acc := append([]byte(nil), data...)
	if n == 1 {
		return acc, at, nil
	}
	span := chunkSpan(rop.Align)
	vr := (rank - root + n) % n
	vt := at
	level := 0
	for mask := 1; mask < n; mask <<= 1 {
		tagBase := tagBit | uint32(level)<<tagChunkBits
		if vr&mask != 0 {
			// This rank's subtree is folded: ship the accumulator up.
			parent := realRank(vr-mask, root, n)
			var err error
			vt, err = g.sendRange(rank, parent, op, tagBase, acc, span, vt, chunks)
			if err != nil {
				return nil, vt, err
			}
			return nil, vt, nil
		}
		if vr+mask < n {
			in, rvt, err := g.recvPayload(rank, op, tagBase, vt)
			if err != nil {
				return nil, vt, err
			}
			acc = rop.Combine(acc, in)
			vt = rvt.Add(combineCost(len(in)))
		}
		level++
	}
	return acc, vt, nil
}

// segBounds splits an L-byte buffer into n ring segments with boundaries
// snapped to align; the last segment absorbs the remainder.
func segBounds(L, n, align, i int) (lo, hi int) {
	if align < 1 {
		align = 1
	}
	base := L / n
	base -= base % align
	lo = i * base
	hi = lo + base
	if i == n-1 {
		hi = L
	}
	return lo, hi
}

// Allreduce combines every rank's payload with rop and returns the result
// to all ranks. Like MPI_Allreduce, every rank must pass the same payload
// length. Small payloads ride binomial reduce-then-broadcast; large ones
// run the bandwidth-optimal chunked ring (reduce-scatter + allgather),
// which moves 2·B·(n-1)/n bytes over each rank's link regardless of n.
// The result is read-only and garbage-collected, with no capacity past its
// length; after a small allreduce every rank's result may alias rank 0's.
func (g *Group) Allreduce(op int64, rank int, data []byte, rop ReduceOp, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	n := g.Size()
	chunks := metrics.GetCounter(allreduceCtrs.chunks)
	countOp := func(resLen int) {
		if rank == 0 {
			metrics.GetCounter(allreduceCtrs.ops).Inc()
			metrics.GetCounter(allreduceCtrs.bytes).Add(int64(resLen))
		}
	}
	if n == 1 {
		countOp(len(data))
		return slices.Clip(data), at, nil
	}

	if len(data) <= SmallLimit {
		acc, vt, err := g.reduce(op, rank, 0, data, rop, 0, chunks, at)
		if err != nil {
			return nil, vt, err
		}
		out, vt, err := g.bcast(op, rank, 0, acc, bcastTagBit, chunks, vt)
		if err != nil {
			return nil, vt, err
		}
		countOp(len(out))
		g.members[rank].retire(op)
		return out, vt, nil
	}

	// Ring: reduce-scatter then allgather, segment per rank, chunked.
	L := len(data)
	span := chunkSpan(rop.Align)
	right := (rank + 1) % n
	work := make([]byte, L)
	copy(work, data)
	vt := at
	mod := func(x int) int { return ((x % n) + n) % n }

	// Each step sends a private copy of the outgoing window, never a
	// subslice of work: every transport keeps the sender's slice aliased at
	// the receiver, and a later step rewrites the same segment of work.
	for s := 0; s < n-1; s++ {
		tagBase := uint32(s) << tagChunkBits
		sendSeg := mod(rank - s)
		recvSeg := mod(rank - s - 1)
		slo, shi := segBounds(L, n, rop.Align, sendSeg)
		seg := append([]byte(nil), work[slo:shi]...)
		var err error
		vt, err = g.sendRange(rank, right, op, tagBase, seg, span, vt, chunks)
		if err != nil {
			return nil, vt, err
		}
		rlo, rhi := segBounds(L, n, rop.Align, recvSeg)
		vt, err = g.recvRange(rank, op, tagBase, work, rlo, rhi, span, &rop, vt)
		if err != nil {
			return nil, vt, err
		}
	}
	for s := 0; s < n-1; s++ {
		tagBase := uint32(n-1+s) << tagChunkBits
		sendSeg := mod(rank + 1 - s)
		recvSeg := mod(rank - s)
		slo, shi := segBounds(L, n, rop.Align, sendSeg)
		seg := append([]byte(nil), work[slo:shi]...)
		var err error
		vt, err = g.sendRange(rank, right, op, tagBase, seg, span, vt, chunks)
		if err != nil {
			return nil, vt, err
		}
		rlo, rhi := segBounds(L, n, rop.Align, recvSeg)
		vt, err = g.recvRange(rank, op, tagBase, work, rlo, rhi, span, nil, vt)
		if err != nil {
			return nil, vt, err
		}
	}
	countOp(L)
	g.members[rank].retire(op)
	return work, vt, nil
}
