// Package fifo is a first-in first-out queue that keeps its array: the
// message queues of the fabric, the RDMA completion queues and the rpc
// environment's dispatch and serve queues all push at the back and pop at
// the front, and a slice popped with q = q[1:] and grown by append drops its
// head and reallocates every few messages under a steady one-in, one-out
// load.
package fifo

// Queue is a FIFO of T over one slice. Its zero value is an empty queue. It
// is not safe for concurrent use; its owners lock around it.
type Queue[T any] struct {
	buf  []T // buf[head:] is the queue
	head int
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v. A full array with popped slots at its front is compacted
// instead of grown, so a queue allocates only when it holds more values than
// it ever has: past its high-water mark.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest value; ok is false on an empty queue.
// The vacated slot is zeroed, so the queue does not keep what it handed out
// alive, and an emptied queue starts again at the front of its array.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}
