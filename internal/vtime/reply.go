package vtime

import "sync"

// Reply is a one-shot value: a request's completion (an MPI receive or
// rendezvous send, an Ask's reply, a batch's last block) that one side puts
// and any number of waiters take.
//
// Its zero value is empty and ready to use. It is held by value in the
// request it completes, so it allocates nothing of its own, and must not be
// copied after first use.
type Reply[T any] struct {
	mu   sync.Mutex
	cond sync.Cond // L is set by the first Wait that blocks
	v    T
	done bool
}

// Put stores v and wakes every waiter. It never blocks. The first Put wins:
// a later one changes nothing and returns false.
func (r *Reply[T]) Put(v T) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return false
	}
	r.v, r.done = v, true
	r.cond.Broadcast()
	return true
}

// Wait blocks until the reply is put and returns its value, the same to
// every waiter.
func (r *Reply[T]) Wait() T {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.done {
		if r.cond.L == nil {
			r.cond.L = &r.mu
		}
		r.cond.Wait()
	}
	return r.v
}
