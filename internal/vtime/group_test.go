package vtime

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestGroup pins the join's contract, one behaviour per case.
func TestGroup(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"zero value with no Go returns nil", func(t *testing.T) {
			var g Group
			if err := g.Wait(); err != nil {
				t.Fatalf("Wait = %v, want nil", err)
			}
		}},
		{"the earliest Go call's error wins", func(t *testing.T) {
			first, second := errors.New("first"), errors.New("second")
			var g Group
			var secondFailed Reply[struct{}]
			g.Go(func() error {
				secondFailed.Wait()
				// Return only once the group holds the second error, so it
				// was recorded first.
				for {
					g.mu.Lock()
					recorded := g.err != nil
					g.mu.Unlock()
					if recorded {
						return first
					}
					runtime.Gosched()
				}
			})
			g.Go(func() error {
				defer secondFailed.Put(struct{}{})
				return second
			})
			g.Go(func() error { return nil })
			if err := g.Wait(); err != first {
				t.Fatalf("Wait = %v, want the first Go call's error", err)
			}
		}},
		{"Wait returns after every fn", func(t *testing.T) {
			const fns = 8
			var g Group
			var release Reply[struct{}]
			var returned atomic.Int32
			for i := 0; i < fns; i++ {
				g.Go(func() error {
					release.Wait()
					returned.Add(1)
					return nil
				})
			}
			waited := make(chan error)
			go func() { waited <- g.Wait() }()
			select {
			case <-waited:
				t.Fatal("Wait returned while every fn was blocked")
			default:
			}
			release.Put(struct{}{})
			if err := <-waited; err != nil {
				t.Fatalf("Wait = %v, want nil", err)
			}
			if n := returned.Load(); n != fns {
				t.Fatalf("Wait returned after %d of %d fns", n, fns)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
