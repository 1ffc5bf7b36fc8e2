// Package core implements MPI4Spark — the paper's contribution. It plugs
// MPI communication into the Netty layer underneath Spark without touching
// the Spark API:
//
//   - channel↔rank mapping: at connection establishment each side sends its
//     MPI identity (group kind, rank) and the channel's MPI tags over the
//     still-present socket, mirroring §VI-B's exchange of ranks and
//     communicator-type bytes through PooledDirectByteBufs;
//   - MPI4Spark-Basic: every Netty frame travels over MPI; the selector
//     loop runs a non-blocking select plus MPI_Iprobe poll (§IV-D), which
//     burns CPU and starves compute — modeled as one core per spinning
//     selector, taken from the tasks of the node it runs on;
//   - MPI4Spark-Optimized: only block-path bodies (ChunkFetchSuccess,
//     PushBlockRequest, CollectiveChunk) travel over MPI; their headers stay
//     on the socket and trigger the matching MPI_Recv in a channel handler
//     (§IV-E);
//   - launching (Fig. 3): SPMD wrapper ranks fork Spark roles, workers
//     exchange executor specs with MPI_Allgather, and executors are spawned
//     with MPI_Comm_spawn_multiple, communicating over DPM_COMM and the
//     parent intercommunicator.
package core

import (
	"fmt"

	"mpi4spark/internal/mpi"
)

// Group kinds for the communicator-type byte exchanged at connection
// establishment.
const (
	// KindParent marks a process in MPI_COMM_WORLD (worker, master,
	// driver).
	KindParent byte = 0
	// KindChild marks a DPM-spawned executor in DPM_COMM.
	KindChild byte = 1
)

// Identity is a process's MPI persona: which group it belongs to, its rank
// there, and its handles on the intracommunicator and (if present) the
// parent/child intercommunicator.
type Identity struct {
	Kind byte
	// World is the process's intracommunicator handle: MPI_COMM_WORLD for
	// parents, DPM_COMM for spawned executors.
	World *mpi.Handle
	// Inter is the intercommunicator handle to the other group: the
	// spawn-returned intercomm for parents, MPI_Comm_get_parent for
	// children. Nil when no spawn has happened.
	Inter *mpi.Handle
}

// Rank returns the process's rank within its own group.
func (id *Identity) Rank() int { return id.World.Rank() }

// route is a resolved destination: the handle to send on and the
// destination rank in that communicator's addressing.
type route struct {
	h    *mpi.Handle
	rank int
}

// resolve maps a peer's (kind, rank) to the local handle+rank to use, the
// §VI-B communicator-type dispatch.
func (id *Identity) resolve(peerKind byte, peerRank int) (route, error) {
	if peerKind == id.Kind {
		return route{h: id.World, rank: peerRank}, nil
	}
	if id.Inter == nil {
		return route{}, fmt.Errorf("core: no intercommunicator to reach kind-%d rank %d", peerKind, peerRank)
	}
	return route{h: id.Inter, rank: peerRank}, nil
}

// Channel attribute keys used by the MPI transports.
const (
	attrRoute = "mpi.route" // route to the peer
)
