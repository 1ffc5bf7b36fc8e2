package vtime

import "sync"

// Group joins a fan-out: each Go starts a function on its own goroutine,
// and Wait returns once all of them have returned.
//
// Its zero value is an empty group. Go must not be called concurrently
// with Wait.
type Group struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	calls int   // Go calls so far
	first int   // the Go call that err came from
	err   error // the error of the earliest Go call that failed
}

// Go starts fn on its own goroutine.
func (g *Group) Go(fn func() error) {
	g.mu.Lock()
	call := g.calls
	g.calls++
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil || call < g.first {
				g.first, g.err = call, err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every function started by Go has returned. It returns
// the error of the earliest Go call whose function failed, whichever
// goroutine the host ran first, or nil.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
