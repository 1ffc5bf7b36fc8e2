// Package mpi implements the Message Passing Interface subset that
// MPI4Spark builds on, and no more: communicators (intra and inter),
// blocking and non-blocking point-to-point communication with MPI matching
// semantics (source/tag wildcards, non-overtaking order, unexpected-message
// queues, Iprobe), eager and rendezvous wire protocols, the two collectives
// the launcher runs (Barrier and Allgather), and Dynamic Process Management
// (SpawnMultiple). Spark-level collectives run over internal/collective on
// every transport, not here.
//
// Processes are simulated: each Proc is pinned to a fabric node and owns a
// matching engine; SPMD programs are ordinary goroutines each holding a
// *Handle (its view of a communicator). All timing flows through virtual
// time: communication calls take the caller's virtual clock value and
// return updated stamps.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// AnySource matches a message from any source rank, like MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag matches a message with any tag, like MPI_ANY_TAG.
const AnyTag = -1

// DefaultEagerThreshold is the message size (bytes) at and below which the
// eager protocol is used; larger messages use rendezvous. MVAPICH2's
// default inter-node threshold is in the tens of kilobytes.
const DefaultEagerThreshold = 64 << 10

// World is the MPI universe: the set of simulated processes and the fabric
// that joins them. One World underlies every communicator, including those
// created by DPM.
type World struct {
	fabric *fabric.Fabric

	mu       sync.Mutex
	procs    []*Proc
	commSeq  int64
	abortErr error       // set once by Abort
	spawned  vtime.Group // the mains of the processes SpawnMultiple started

	// EagerThreshold is the eager/rendezvous switch point in bytes.
	EagerThreshold int
}

// NewWorld creates an MPI universe over the given fabric.
func NewWorld(f *fabric.Fabric) *World {
	return &World{fabric: f, EagerThreshold: DefaultEagerThreshold}
}

// Abort is MPI_Abort: a failing process ends the job. Every collective in
// the world fails with an error wrapping err: a rank blocked in one of its
// receives returns at once, and so does every later one. The first abort's
// error wins. A rendezvous-size send to a rank that left is not released;
// the launcher's collectives carry eager-size payloads. Point-to-point
// traffic is left alone; whoever aborts closes its own transports.
func (w *World) Abort(err error) {
	w.mu.Lock()
	if w.abortErr != nil {
		w.mu.Unlock()
		return
	}
	w.abortErr = fmt.Errorf("mpi: aborted: %w", err)
	procs := append([]*Proc(nil), w.procs...)
	w.mu.Unlock()
	for _, p := range procs {
		p.engine.abort()
	}
}

// aborted returns the error of the world's abort, or nil.
func (w *World) aborted() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abortErr
}

// NewProc creates a simulated MPI process on the given node.
func (w *World) NewProc(node *fabric.Node) *Proc {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := &Proc{
		world:  w,
		node:   node,
		engine: &engine{aborted: w.abortErr != nil},
	}
	w.procs = append(w.procs, p)
	return p
}

// NewComm builds an intracommunicator over the given processes; rank i is
// procs[i].
func (w *World) NewComm(procs []*Proc) *Comm {
	w.mu.Lock()
	id := w.commSeq
	w.commSeq++
	w.mu.Unlock()
	c := &Comm{id: id, world: w, procs: append([]*Proc(nil), procs...)}
	return c
}

// InitWorld is the common bootstrap: it creates one process per node entry
// and returns MPI_COMM_WORLD over them. nodes may repeat (multiple
// processes per node).
func (w *World) InitWorld(nodes []*fabric.Node) *Comm {
	procs := make([]*Proc, len(nodes))
	for i, n := range nodes {
		procs[i] = w.NewProc(n)
	}
	return w.NewComm(procs)
}

// Proc is one simulated MPI process: an identity, a location, and a
// matching engine holding its posted receives and unexpected messages.
type Proc struct {
	world  *World
	node   *fabric.Node
	engine *engine
}

// Comm is a communicator: an ordered group of processes sharing a context
// id. For an intercommunicator, remote is the other group.
type Comm struct {
	id     int64
	world  *World
	procs  []*Proc
	remote []*Proc // non-nil for an intercommunicator's remote group

	collMu   sync.Mutex
	collSeq  map[int]int64 // per-rank collective instance counters
	spawnMu  sync.Mutex
	spawnRes map[int64]*Comm // root's parent view, per spawn instance
}

// Size returns the number of processes in the (local) group.
func (c *Comm) Size() int { return len(c.procs) }

// Handle returns rank's handle on this communicator — the object an SPMD
// goroutine uses to communicate.
func (c *Comm) Handle(rank int) *Handle {
	if rank < 0 || rank >= len(c.procs) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(c.procs)))
	}
	return &Handle{comm: c, rank: rank}
}

// peer resolves the destination process for a send: the remote group for
// intercommunicators, the local group otherwise.
func (c *Comm) peer(rank int) *Proc {
	if c.remote != nil {
		return c.remote[rank]
	}
	return c.procs[rank]
}

// Handle is one process's view of a communicator: the pair (comm, rank).
// Point-to-point operations, Barrier, Allgather and SpawnMultiple hang off
// it.
type Handle struct {
	comm *Comm
	rank int
}

// Rank returns the caller's rank in the communicator.
func (h *Handle) Rank() int { return h.rank }

// Size returns the size of the communicator's local group.
func (h *Handle) Size() int { return h.comm.Size() }

// Comm returns the underlying communicator.
func (h *Handle) Comm() *Comm { return h.comm }

// Proc returns the caller's process.
func (h *Handle) Proc() *Proc { return h.comm.procs[h.rank] }

// EagerThreshold returns the world's eager/rendezvous switch point in
// bytes. Transports that pick their own message granularity (for example
// the Optimized design's collective body path) use it to keep every piece
// on the eager protocol.
func (h *Handle) EagerThreshold() int { return h.comm.world.EagerThreshold }

// Status describes a received or probed message.
type Status struct {
	// Source is the sender's rank in the communicator the message was sent
	// on (remote-group rank for intercommunicators).
	Source int
	// Tag is the message tag.
	Tag int
	// Count is the payload size in bytes.
	Count int
	// VT is the virtual time at which the message (or, for Iprobe, its
	// envelope) is available at the receiver.
	VT vtime.Stamp
}

var tagSeq atomic.Int64

// AllocTag returns a fresh tag from a process-global sequence, handy for
// request/response pairing in higher layers.
func AllocTag() int { return int(tagSeq.Add(1)) + 1<<20 }
