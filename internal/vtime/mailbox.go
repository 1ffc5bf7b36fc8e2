package vtime

import (
	"sync"

	"mpi4spark/internal/fifo"
)

// Mailbox is an unbounded FIFO with a blocking receive: the one queue
// between the simulation's layers (a connection's two directions, a
// listener's backlog, an RDMA completion queue, an rpc endpoint's
// dispatch). Unbounded buffering mirrors the flow-control-free model:
// backpressure is charged in virtual time (NIC resources), never by
// blocking the simulation itself, which avoids cross-layer deadlocks.
//
// Its zero value is an open, empty mailbox. A mailbox must not be copied
// after first use.
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond // L is set by the first Recv that waits
	items  fifo.Queue[T]
	closed bool
	notify func()
}

// Push appends v and reports whether the mailbox took it: a closed mailbox
// drops v and returns false, as a torn-down connection drops a late message.
func (m *Mailbox[T]) Push(v T) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.items.Push(v)
	m.cond.Signal()
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		notify()
	}
	return true
}

// Recv blocks until a value is available or the mailbox is closed. A closed
// mailbox hands out what it holds first; ok is false once it is closed and
// empty.
func (m *Mailbox[T]) Recv() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.items.Len() == 0 && !m.closed {
		if m.cond.L == nil {
			m.cond.L = &m.mu
		}
		m.cond.Wait()
	}
	return m.items.Pop()
}

// TryRecv returns the oldest value without blocking; ok reports whether
// there was one.
func (m *Mailbox[T]) TryRecv() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.items.Pop()
}

// Len returns the number of values waiting to be received.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.items.Len()
}

// Close stops the mailbox taking values and wakes every receiver. It is
// idempotent: only the first call runs the notify hook.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// SetNotify installs fn as the readiness hook (nil removes it): it runs,
// outside the mailbox's lock, after every push the mailbox takes and when
// it closes, and once now, so nothing pushed before it is missed.
// Selector-style readers park on it instead of in Recv.
func (m *Mailbox[T]) SetNotify(fn func()) {
	m.mu.Lock()
	m.notify = fn
	m.mu.Unlock()
	if fn != nil {
		fn()
	}
}
