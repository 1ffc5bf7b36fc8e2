package fabric

import (
	"errors"
	"sync"
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
	items  []Message
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
	q.items = append(q.items, m)
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
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return Message{}, ErrClosed
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m, nil
}

// tryPop returns a buffered message without blocking. ok reports whether a
// message was available.
func (q *queue) tryPop() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Message{}, false
	}
	m := q.items[0]
	q.items = q.items[1:]
	return m, true
}

// peek reports whether a message is buffered without consuming it.
func (q *queue) peek() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Message{}, false
	}
	return q.items[0], true
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
