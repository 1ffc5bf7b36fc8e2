package fabric

import (
	"errors"
	"sync"

	"mpi4spark/internal/fifo"
)

// ErrClosed is returned by queue and connection operations after Close.
var ErrClosed = errors.New("fabric: closed")

// queue is an unbounded FIFO of messages with blocking receive. Unbounded
// buffering mirrors the flow-control-free virtual-time model: backpressure
// is accounted for in virtual time (NIC resources), never by blocking the
// simulation itself, which avoids cross-layer deadlocks.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  fifo.Queue[Message]
	closed bool
	notify func()
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a message. Pushing to a closed queue silently drops the
// message, matching the semantics of a torn-down connection.
func (q *queue) push(m Message) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items.Push(m)
	q.cond.Signal()
	notify := q.notify
	q.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// setNotify installs a callback invoked after every push (and on close).
// Selector-style readers use it as their readiness signal.
func (q *queue) setNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// pop blocks until a message is available or the queue is closed. A closed
// queue first drains buffered messages, then reports ErrClosed.
func (q *queue) pop() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if m, ok := q.items.Pop(); ok {
		return m, nil
	}
	return Message{}, ErrClosed
}

// tryPop returns a buffered message without blocking. ok reports whether a
// message was available.
func (q *queue) tryPop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Pop()
}

// pending reports whether a message is buffered.
func (q *queue) pending() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len() > 0
}

// close marks the queue closed and wakes all waiters.
func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.cond.Broadcast()
	notify := q.notify
	q.mu.Unlock()
	if notify != nil {
		notify()
	}
}
