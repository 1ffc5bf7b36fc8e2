// Package collective implements size-adaptive collective communication
// over the rpc/fabric stack: binomial-tree broadcast and binomial reduce
// for small payloads, pipelined chain broadcast and chunked ring allreduce
// (reduce-scatter + allgather) for large ones. The algorithms run over the
// existing netty channels, so all four designs participate: on the socket
// backends chunks are ordinary frames, on MPI4Spark-Basic whole frames
// become MPI messages, and on MPI4Spark-Optimized each chunk body ships as
// one eager/rendezvous MPI message with its header on the socket — capping
// the chunk size at the eager threshold therefore keeps every collective
// chunk on the rendezvous-free path, the same rule the shuffle applies.
package collective

import (
	"errors"
	"sync"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// ErrClosed is returned by collective calls whose station shut down (the
// hosting process died or its environment stopped).
var ErrClosed = errors.New("collective: station closed")

// retireCap bounds the remembered-completed-ops set per station. Ops whose
// retirement record ages out could in principle have a stale chunk
// recreate an empty slot; the cap trades that bounded leak for O(1)
// memory on long-running processes.
const retireCap = 4096

type slotKey struct {
	op  int64
	tag uint32
}

// delivery is one landed chunk, matched by (op, tag).
type delivery struct {
	total  int
	offset int
	data   []byte
	vt     vtime.Stamp
}

type slot struct {
	ds  []delivery
	sig vtime.Signal // a landed chunk or an abort wakes recv; Close closes it
}

// Station is one rank's attachment point to the collective layer: it sinks
// inbound CollectiveChunk messages from the rank's RPC environment into
// (op, tag)-keyed slots that the algorithms receive from. Create one per
// environment with NewStation; it fails all blocked receives when the
// environment shuts down.
type Station struct {
	env *rpc.Env

	mu      sync.Mutex
	slots   map[slotKey]*slot
	aborted map[int64]error
	retired map[int64]bool
	retireQ []int64
	closed  bool

	// sendClock serializes this rank's chunk sends: each chunk charges one
	// SendCost here, mirroring the shuffle serve pump's per-chunk stream-
	// manager accounting (wire time and NIC occupancy are charged by the
	// transfer itself).
	sendClock vtime.Clock
}

// NewStation attaches a collective station to env. The station registers
// itself as the environment's collective sink and closes with it.
func NewStation(env *rpc.Env) *Station {
	st := &Station{
		env:     env,
		slots:   make(map[slotKey]*slot),
		aborted: make(map[int64]error),
		retired: make(map[int64]bool),
	}
	env.RegisterCollectiveSink(st.onChunk)
	env.OnShutdown(st.Close)
	return st
}

// Addr returns the station's wire address.
func (st *Station) Addr() fabric.Addr { return st.env.Addr() }

// onChunk sinks one inbound chunk. The body is kept by reference: on every
// transport it is the very slice the sending rank passed to sendChunk,
// which the algorithms never modify once sent (a rank that goes on
// rewriting its work buffer sends a private copy of the window), so a
// delivery may be held across further sends and forwarded as is.
func (st *Station) onChunk(m *rpc.CollectiveChunk, vt vtime.Stamp) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.retired[m.OpID] {
		return
	}
	if _, bad := st.aborted[m.OpID]; bad {
		return
	}
	s := st.slotLocked(slotKey{op: m.OpID, tag: m.Tag})
	s.ds = append(s.ds, delivery{
		total:  int(m.Total),
		offset: int(m.Offset),
		data:   m.Body,
		vt:     vt,
	})
	s.sig.Wake()
}

// slotLocked returns (creating on demand) the slot for k. Caller holds mu.
func (st *Station) slotLocked(k slotKey) *slot {
	s := st.slots[k]
	if s == nil {
		s = &slot{}
		st.slots[k] = s
	}
	return s
}

// recv blocks until a chunk matching (op, tag) lands, the op is aborted,
// or the station closes.
func (st *Station) recv(op int64, tag uint32) (delivery, error) {
	k := slotKey{op: op, tag: tag}
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return delivery{}, ErrClosed
		}
		if err := st.aborted[op]; err != nil {
			st.mu.Unlock()
			return delivery{}, err
		}
		s := st.slotLocked(k)
		if len(s.ds) > 0 {
			d := s.ds[0]
			s.ds = s.ds[1:]
			st.mu.Unlock()
			return d, nil
		}
		st.mu.Unlock()
		s.sig.Park(true)
	}
}

// AbortOp fails the op on this station: blocked and future receives for it
// return err. The group's runner calls it on every member when any rank
// errors — the collective analogue of MPI's default abort-on-error
// handler, which keeps sibling ranks from blocking forever on chunks a
// failed rank will never send.
func (st *Station) AbortOp(op int64, err error) {
	if err == nil {
		err = errors.New("collective: operation aborted")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.retired[op] {
		return
	}
	if st.aborted[op] == nil {
		st.aborted[op] = err
	}
	for k, s := range st.slots {
		if k.op == op {
			s.sig.Wake()
		}
	}
}

// retire forgets a completed op: its slots are dropped and late chunks for
// it are discarded instead of accumulating. Every algorithm consumes
// exactly the chunks addressed to its rank before returning, so retirement
// on success drops nothing live.
func (st *Station) retire(op int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.retired[op] {
		return
	}
	st.retired[op] = true
	st.retireQ = append(st.retireQ, op)
	if len(st.retireQ) > retireCap {
		old := st.retireQ[0]
		st.retireQ = st.retireQ[1:]
		delete(st.retired, old)
	}
	delete(st.aborted, op)
	for k := range st.slots {
		if k.op == op {
			delete(st.slots, k)
		}
	}
}

// Close fails all blocked and future receives with ErrClosed. It is
// registered on the environment's shutdown path and is idempotent.
func (st *Station) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	for _, s := range st.slots {
		s.sig.Close()
	}
}
