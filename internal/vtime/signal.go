package vtime

import "sync"

// Signal is a coalescing wake-up with a close: a selector's wake token (an
// event loop's), or a slot a receiver parks on until something lands.
//
// Its zero value is open, with no token, and ready to use. It must not be
// copied after first use.
type Signal struct {
	mu     sync.Mutex
	cond   sync.Cond // L is set by the first Park that blocks
	token  bool
	closed bool
}

// Wake leaves a token for the next Park. It never blocks: a token already
// pending absorbs it, and after Close it does nothing.
func (s *Signal) Wake() {
	s.mu.Lock()
	if !s.closed && !s.token {
		s.token = true
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// Park takes the pending token. With block it waits for one; without it
// only polls. It returns false once the signal is closed, even with a token
// pending: a close wins.
func (s *Signal) Park(block bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for block && !s.token && !s.closed {
		if s.cond.L == nil {
			s.cond.L = &s.mu
		}
		s.cond.Wait()
	}
	s.token = false
	return !s.closed
}

// Close wakes every parked caller and makes every later Park return false
// at once. It is idempotent.
func (s *Signal) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
