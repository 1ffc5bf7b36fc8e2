package mpi

import (
	"fmt"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// DefaultSpawnLatency models the per-spawn process launch cost (fork/exec
// of a JVM-sized executor in the paper's setting is far larger; this covers
// the MPI-side DPM cost. Executor startup cost is modeled by the Spark
// layer on top).
const DefaultSpawnLatency = 2 * time.Millisecond

// SpawnSpec describes one group of processes to spawn on a node, the Go
// analogue of one entry in MPI_Comm_spawn_multiple's array of (command,
// argv, maxprocs, info).
type SpawnSpec struct {
	// Node is where the processes run.
	Node *fabric.Node
	// Count is the number of processes for this spec.
	Count int
	// Args is an opaque argument blob (the executor launch command in
	// MPI4Spark); it is exchanged across the parent communicator with
	// Allgather before the spawn, as the paper describes.
	Args []byte
	// Main is the program the spawned processes run. It receives the
	// child's context and runs on its own goroutine, which the world joins
	// in WaitSpawned.
	Main func(ctx *ChildContext) error
}

// ChildContext is what a spawned process starts with: its own world
// (MPI_COMM_WORLD of the children) and the intercommunicator to the
// parents (MPI_Comm_get_parent).
type ChildContext struct {
	// World is the child's handle on the communicator spanning all
	// processes created by this spawn (DPM_COMM in the paper's Figure 3).
	World *Handle
	// Parent is the child's handle on the intercommunicator to the parent
	// group.
	Parent *Handle
	// Args is this process's SpawnSpec argument blob.
	Args []byte
	// StartVT is the virtual time at which the process begins executing.
	StartVT vtime.Stamp
}

// SpawnMultiple is MPI_Comm_spawn_multiple: a collective over the parent
// communicator that launches the processes described by specs and returns
// each parent's handle on the new intercommunicator. Only root's specs are
// consulted, matching MPI semantics; the launch arguments inside are first
// allgathered across the parents (the paper's mechanism for making every
// worker know all executor commands). The children start in spec order. In
// an aborted world it returns the abort's error (see World.Abort).
func (h *Handle) SpawnMultiple(specs []SpawnSpec, root int, at vtime.Stamp) (*Handle, vtime.Stamp, error) {
	c := h.comm
	seq := int64(c.nextCollBlock(h.rank)) // doubles as the spawn instance key

	// Exchange launch arguments across parents (MPI_Allgather per paper §V).
	var argBlob []byte
	for _, s := range specs {
		argBlob = append(argBlob, s.Args...)
	}
	_, vt, err := h.Allgather(argBlob, at)
	if err != nil {
		return nil, vt, err
	}

	if h.rank == root {
		w := c.world
		var children []*Proc
		var childArgs [][]byte
		var mains []func(ctx *ChildContext) error
		for _, s := range specs {
			count := s.Count
			if count <= 0 {
				count = 1
			}
			for i := 0; i < count; i++ {
				children = append(children, w.NewProc(s.Node))
				childArgs = append(childArgs, s.Args)
				mains = append(mains, s.Main)
			}
		}
		childComm := w.NewComm(children)
		parentView, childView := w.newIntercommPair(c.procs, children)
		c.spawnMu.Lock()
		if c.spawnRes == nil {
			c.spawnRes = make(map[int64]*Comm)
		}
		c.spawnRes[seq] = parentView
		c.spawnMu.Unlock()

		startVT := vt.Add(DefaultSpawnLatency)
		for i := range children {
			ctx := &ChildContext{
				World:   childComm.Handle(i),
				Parent:  childView.Handle(i),
				Args:    childArgs[i],
				StartVT: startVT,
			}
			if main := mains[i]; main != nil {
				w.spawned.Go(func() error { return main(ctx) })
			}
		}
	}

	// All parents synchronize; after the barrier the result is visible.
	if vt, err = h.Barrier(vt); err != nil {
		return nil, vt, err
	}
	vt = vt.Add(DefaultSpawnLatency)

	c.spawnMu.Lock()
	parentView := c.spawnRes[seq]
	c.spawnMu.Unlock()
	if parentView == nil {
		panic(fmt.Sprintf("mpi: spawn result missing for seq %d (root did not spawn?)", seq))
	}
	return parentView.Handle(h.rank), vt, nil
}

// WaitSpawned returns once the main of every process SpawnMultiple started
// in the world has, with the error of the earliest started one that failed,
// or nil. It must not run concurrently with a SpawnMultiple.
func (w *World) WaitSpawned() error { return w.spawned.Wait() }

// newIntercommPair builds the two mirror views of an intercommunicator
// joining groups a and b. Both views share one context id so point-to-point
// matching works across them.
func (w *World) newIntercommPair(a, b []*Proc) (aView, bView *Comm) {
	w.mu.Lock()
	id := w.commSeq
	w.commSeq++
	w.mu.Unlock()
	ac := append([]*Proc(nil), a...)
	bc := append([]*Proc(nil), b...)
	aView = &Comm{id: id, world: w, procs: ac, remote: bc}
	bView = &Comm{id: id, world: w, procs: bc, remote: ac}
	return aView, bView
}
