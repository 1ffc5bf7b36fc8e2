// Package rdma is a verbs-like kernel-bypass communication layer over the
// simulated fabric: devices, registered memory regions, queue pairs with
// two-sided SEND/RECV, one-sided RDMA READ, and completion queues.
//
// It is the substrate for internal/ucr, the Unified Communication Runtime
// that RDMA-Spark (the paper's strongest baseline) builds its
// BlockTransferService on.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/fifo"
	"mpi4spark/internal/vtime"
)

// ErrClosed is returned after a queue pair has been destroyed.
var ErrClosed = errors.New("rdma: closed")

// RegistrationCost models memory-region registration: a base syscall cost
// plus a per-page pinning cost.
type RegistrationCost struct {
	Base    time.Duration
	PerByte float64 // nanoseconds per byte
}

// DefaultRegistration is a typical ibv_reg_mr cost profile.
var DefaultRegistration = RegistrationCost{Base: 15 * time.Microsecond, PerByte: 0.05}

// Device is a node's RDMA-capable NIC handle.
type Device struct {
	node *fabric.Node
	fab  *fabric.Fabric
	reg  RegistrationCost
}

// OpenDevice opens the RDMA device on a node.
func OpenDevice(node *fabric.Node) *Device {
	return &Device{node: node, fab: node.Fabric(), reg: DefaultRegistration}
}

// Node returns the device's node.
func (d *Device) Node() *fabric.Node { return d.node }

// MemoryRegion is registered (pinned) memory visible to remote RDMA
// operations.
type MemoryRegion struct {
	dev *Device
	buf []byte
}

// RegisterMemory pins buf and returns the region plus the virtual time at
// which registration completes.
func (d *Device) RegisterMemory(buf []byte, at vtime.Stamp) (*MemoryRegion, vtime.Stamp) {
	cost := d.reg.Base + time.Duration(d.reg.PerByte*float64(len(buf)))
	return &MemoryRegion{dev: d, buf: buf}, at.Add(cost)
}

// Len returns the region's size.
func (mr *MemoryRegion) Len() int { return len(mr.buf) }

// Completion is one completion-queue entry.
type Completion struct {
	// Op is "send" or "recv".
	Op string
	// Data is the received payload for recv completions; Body, when
	// non-nil, is the second part of a PostSendGather that follows it.
	// Both alias the sender's slices.
	Data []byte
	Body []byte
	// VT is the virtual completion time.
	VT vtime.Stamp
}

// CompletionQueue collects work completions for polling.
type CompletionQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  fifo.Queue[Completion]
	closed bool
}

func newCQ() *CompletionQueue {
	cq := &CompletionQueue{}
	cq.cond = sync.NewCond(&cq.mu)
	return cq
}

func (cq *CompletionQueue) push(c Completion) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.closed {
		return
	}
	cq.queue.Push(c)
	cq.cond.Broadcast()
}

// Wait blocks until at least one completion is available (or the CQ is
// closed) and returns it.
func (cq *CompletionQueue) Wait() (Completion, error) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	for cq.queue.Len() == 0 && !cq.closed {
		cq.cond.Wait()
	}
	if c, ok := cq.queue.Pop(); ok {
		return c, nil
	}
	return Completion{}, ErrClosed
}

func (cq *CompletionQueue) close() {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	cq.closed = true
	cq.cond.Broadcast()
}

// QueuePair is one endpoint of a reliable-connected RDMA channel.
type QueuePair struct {
	local  *Device
	remote *Device
	peer   *QueuePair
	cq     *CompletionQueue
	mu     sync.Mutex
	closed bool
}

// ConnectQP creates a connected queue pair between two devices and returns
// both endpoints (local first). Queue-pair exchange costs one RDMA round
// trip, reflected in the returned ready time.
func ConnectQP(a, b *Device, at vtime.Stamp) (qpA, qpB *QueuePair, ready vtime.Stamp) {
	qpA = &QueuePair{local: a, remote: b, cq: newCQ()}
	qpB = &QueuePair{local: b, remote: a, cq: newCQ()}
	qpA.peer, qpB.peer = qpB, qpA
	cost := a.fab.Model().Costs[fabric.RDMA]
	ready = at.Add(2 * (cost.Latency + cost.SendOverhead + cost.RecvOverhead))
	return qpA, qpB, ready
}

// CQ returns the queue pair's completion queue.
func (qp *QueuePair) CQ() *CompletionQueue { return qp.cq }

// RemoteNode returns the node on the far side of the pair (fault-plane
// link matching).
func (qp *QueuePair) RemoteNode() *fabric.Node { return qp.remote.node }

// nodeFailed reports whether either endpoint's node has been failed on the
// fabric. RDMA bypasses fabric connections, so queue pairs discover node
// failure lazily, like a reliable-connected QP timing out its retries.
func (qp *QueuePair) nodeFailed() bool {
	fab := qp.local.fab
	return fab.Failed(qp.local.node.Name()) || fab.Failed(qp.remote.node.Name())
}

// PostSend ships data to the peer (two-sided SEND). The payload surfaces
// in the peer CQ as a recv completion; the local CQ receives a send
// completion. It returns the time the caller's CPU is free.
func (qp *QueuePair) PostSend(data []byte, at vtime.Stamp) (vtime.Stamp, error) {
	return qp.PostSendGather(data, nil, at)
}

// PostSendGather is PostSend with a two-entry scatter/gather list: head and
// body travel as one SEND of len(head)+len(body) bytes, neither copied, and
// surface as Data and Body of the peer's recv completion.
func (qp *QueuePair) PostSendGather(head, body []byte, at vtime.Stamp) (vtime.Stamp, error) {
	qp.mu.Lock()
	closed := qp.closed
	qp.mu.Unlock()
	if closed {
		return at, ErrClosed
	}
	if qp.nodeFailed() {
		// Tear the pair down so peers blocked in CQ.Wait unblock with
		// ErrClosed instead of hanging on a dead endpoint.
		qp.Close()
		return at, fmt.Errorf("rdma: post to failed node %s: %w", qp.remote.node.Name(), ErrClosed)
	}
	cpuFree, deliver := qp.local.fab.Transfer(qp.local.node, qp.remote.node, fabric.RDMA, len(head)+len(body), at)
	qp.cq.push(Completion{Op: "send", VT: cpuFree})
	qp.peer.cq.push(Completion{Op: "recv", Data: head, Body: body, VT: deliver})
	return cpuFree, nil
}

// Close destroys the queue pair (both ends).
func (qp *QueuePair) Close() {
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return
	}
	qp.closed = true
	qp.mu.Unlock()
	qp.cq.close()
	if qp.peer != nil {
		qp.peer.mu.Lock()
		wasClosed := qp.peer.closed
		qp.peer.closed = true
		qp.peer.mu.Unlock()
		if !wasClosed {
			qp.peer.cq.close()
		}
	}
}
