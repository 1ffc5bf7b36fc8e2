package mpi

import (
	"sync"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// rtsBytes is the wire size of a rendezvous ready-to-send control message.
const rtsBytes = 64

// ctsBytes is the wire size of a rendezvous clear-to-send control message.
const ctsBytes = 16

// message is one in-flight point-to-point message at a receiver.
type message struct {
	comm int64
	src  int // source rank, in the receiver's addressing
	tag  int
	// data is the payload; body, when non-nil, is a second part that
	// follows it (IsendGather).
	data, body []byte
	// vt is the virtual time the payload is available (eager) or the RTS
	// envelope arrived (rendezvous, until completed).
	vt   vtime.Stamp
	rndv *rndvState
}

// size is the message's payload length in bytes.
func (m *message) size() int { return len(m.data) + len(m.body) }

// rndvState tracks an incomplete rendezvous transfer.
type rndvState struct {
	fab         *fabric.Fabric
	from, to    *fabric.Node
	size        int
	senderReady vtime.Stamp              // sender CPU time after posting the RTS
	done        vtime.Reply[vtime.Stamp] // the sender's completion time
}

// complete runs the CTS handshake and the bulk transfer in virtual time.
// matchVT is the virtual time at which the receiver matched the RTS (its
// recv-post time, or its recv-call time for an unexpected message).
// It returns the payload delivery time and unblocks the sender.
func (m *message) complete(matchVT vtime.Stamp) vtime.Stamp {
	r := m.rndv
	if r == nil {
		return m.vt
	}
	ctsStart := vtime.Max(m.vt, matchVT)
	_, ctsArrive := r.fab.Transfer(r.to, r.from, fabric.MPIEager, ctsBytes, ctsStart)
	dataStart := vtime.Max(ctsArrive, r.senderReady)
	cpuFree, deliver := r.fab.Transfer(r.from, r.to, fabric.MPIRendezvous, r.size, dataStart)
	m.vt = deliver
	m.rndv = nil
	r.done.Put(cpuFree)
	return deliver
}

// postedRecv is a receive posted before its message arrived.
type postedRecv struct {
	comm   int64
	src    int
	tag    int
	postVT vtime.Stamp
	done   vtime.Reply[*message]
}

func (pr *postedRecv) matches(m *message) bool {
	return pr.comm == m.comm &&
		(pr.src == AnySource || pr.src == m.src) &&
		(pr.tag == AnyTag || pr.tag == m.tag)
}

// engine is a process's matching engine: the posted-receive queue and the
// unexpected-message queue, with MPI matching semantics.
type engine struct {
	mu         sync.Mutex
	unexpected []*message
	posted     []*postedRecv
	// notifiers are called, outside the lock, each time a message joins
	// the unexpected queue (Handle.NotifyArrival). Append-only.
	notifiers []func()
	// aborted is set by World.Abort: a collective receive then matches
	// abortedMsg unless a message is already queued for it.
	aborted bool
}

// abortedMsg is what a collective receive gets in an aborted world; the
// collective then returns the abort's error.
var abortedMsg = &message{}

// isColl reports whether tag is in the collectives' tag space.
func isColl(tag int) bool { return tag >= collTagBase }

// abort marks the engine aborted and releases its posted collective
// receives.
func (e *engine) abort() {
	e.mu.Lock()
	e.aborted = true
	var released []*postedRecv
	kept := e.posted[:0]
	for _, pr := range e.posted {
		if isColl(pr.tag) {
			released = append(released, pr)
		} else {
			kept = append(kept, pr)
		}
	}
	e.posted = kept
	e.mu.Unlock()
	for _, pr := range released {
		pr.done.Put(abortedMsg)
	}
}

// deliver hands an arriving message to the engine: it matches the oldest
// compatible posted receive, or queues the message as unexpected.
// Rendezvous completion for a matched posted receive happens here, using
// the receive's post time — the progress-engine behaviour of a real MPI.
// Only a queued message is announced to the notifiers: a matched receive's
// waiter is already blocked on it.
func (e *engine) deliver(m *message) {
	e.mu.Lock()
	for i, pr := range e.posted {
		if pr.matches(m) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			e.mu.Unlock()
			m.complete(pr.postVT)
			pr.done.Put(m)
			return
		}
	}
	e.unexpected = append(e.unexpected, m)
	notifiers := e.notifiers
	e.mu.Unlock()
	for _, fn := range notifiers {
		fn()
	}
}

// matchUnexpectedLocked removes and returns the oldest unexpected message
// matching (comm, src, tag), or nil. e.mu is held.
func (e *engine) matchUnexpectedLocked(comm int64, src, tag int) *message {
	probe := &postedRecv{comm: comm, src: src, tag: tag}
	for i, m := range e.unexpected {
		if probe.matches(m) {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			return m
		}
	}
	return nil
}

// post registers a receive; the caller must first have failed to match the
// unexpected queue (postOrMatch does both atomically).
func (e *engine) postOrMatch(comm int64, src, tag int, postVT vtime.Stamp) (*message, *postedRecv) {
	e.mu.Lock()
	if m := e.matchUnexpectedLocked(comm, src, tag); m != nil {
		e.mu.Unlock()
		return m, nil
	}
	if e.aborted && isColl(tag) {
		e.mu.Unlock()
		return abortedMsg, nil
	}
	pr := &postedRecv{comm: comm, src: src, tag: tag, postVT: postVT}
	e.posted = append(e.posted, pr)
	e.mu.Unlock()
	return nil, pr
}

// iprobe reports whether a matching message is queued, without consuming
// it, and fills in its status.
func (e *engine) iprobe(comm int64, src, tag int, at vtime.Stamp) (bool, Status) {
	e.mu.Lock()
	defer e.mu.Unlock()
	probe := &postedRecv{comm: comm, src: src, tag: tag}
	for _, m := range e.unexpected {
		if probe.matches(m) {
			return true, Status{Source: m.src, Tag: m.tag, Count: m.size(), VT: vtime.Max(at, m.vt)}
		}
	}
	return false, Status{}
}
