package vtime

import (
	"sync"
	"testing"
)

// TestMailbox pins the mailbox's contract, one behaviour per case.
func TestMailbox(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"FIFO order", func(t *testing.T) {
			var m Mailbox[int]
			for i := 0; i < 100; i++ {
				m.Push(i)
			}
			if m.Len() != 100 {
				t.Fatalf("Len = %d, want 100", m.Len())
			}
			for i := 0; i < 100; i++ {
				recv := m.Recv
				if i%2 == 1 {
					recv = m.TryRecv
				}
				if v, ok := recv(); !ok || v != i {
					t.Fatalf("receive %d = %d, %v", i, v, ok)
				}
			}
			if v, ok := m.TryRecv(); ok {
				t.Fatalf("TryRecv on an empty mailbox = %d, true", v)
			}
		}},
		{"close drains, then reports false", func(t *testing.T) {
			var m Mailbox[string]
			m.Push("a")
			m.Push("b")
			m.Close()
			m.Close() // idempotent
			for _, want := range []string{"a", "b"} {
				if v, ok := m.Recv(); !ok || v != want {
					t.Fatalf("Recv after Close = %q, %v; want %q, true", v, ok, want)
				}
			}
			if v, ok := m.Recv(); ok || v != "" {
				t.Fatalf("Recv on a closed, drained mailbox = %q, %v", v, ok)
			}
		}},
		{"close wakes a blocked receiver", func(t *testing.T) {
			var m Mailbox[int]
			done := make(chan bool)
			go func() {
				_, ok := m.Recv()
				done <- ok
			}()
			m.Close()
			if <-done {
				t.Fatal("a receiver woken by Close got a value")
			}
		}},
		{"push after close returns false", func(t *testing.T) {
			var m Mailbox[int]
			if !m.Push(1) {
				t.Fatal("Push on an open mailbox returned false")
			}
			m.Close()
			if m.Push(2) {
				t.Fatal("Push after Close returned true")
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d, want the 1 value pushed before Close", m.Len())
			}
		}},
		{"notify fires on install, push and close", func(t *testing.T) {
			var m Mailbox[int]
			fired := 0
			m.SetNotify(func() { fired++ })
			if fired != 1 {
				t.Fatalf("install: notify fired %d times, want 1", fired)
			}
			m.Push(1)
			m.Push(2)
			if fired != 3 {
				t.Fatalf("two pushes: notify fired %d times, want 3", fired)
			}
			m.Close()
			m.Close()
			m.Push(3) // dropped: no notify
			if fired != 4 {
				t.Fatalf("close: notify fired %d times, want 4", fired)
			}
		}},
		{"concurrent producers", func(t *testing.T) {
			const producers, each = 4, 500
			var m Mailbox[int]
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						m.Push(p*each + i)
					}
				}(p)
			}
			go func() {
				wg.Wait()
				m.Close()
			}()
			// Each producer's values arrive in the order it pushed them.
			last := make([]int, producers)
			for p := range last {
				last[p] = -1
			}
			n := 0
			for v, ok := m.Recv(); ok; v, ok = m.Recv() {
				p, i := v/each, v%each
				if i <= last[p] {
					t.Fatalf("producer %d: value %d after %d", p, i, last[p])
				}
				last[p] = i
				n++
			}
			if n != producers*each {
				t.Fatalf("received %d values, want %d", n, producers*each)
			}
		}},
		{"steady state allocates nothing", func(t *testing.T) {
			var m Mailbox[*int]
			m.SetNotify(func() {})
			v := new(int)
			for i := 0; i < 8; i++ {
				m.Push(v)
			}
			if n := testing.AllocsPerRun(1000, func() {
				m.Push(v)
				m.Recv()
			}); n != 0 {
				t.Errorf("one in, one out: %v allocations, want 0", n)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
