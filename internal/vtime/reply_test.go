package vtime

import "testing"

// TestReply pins the one-shot reply's contract, one behaviour per case.
func TestReply(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"zero value: put, then wait", func(t *testing.T) {
			var r Reply[int]
			if !r.Put(7) {
				t.Fatal("the first Put returned false")
			}
			if v := r.Wait(); v != 7 {
				t.Fatalf("Wait = %d, want 7", v)
			}
		}},
		{"wait, then put", func(t *testing.T) {
			var r Reply[string]
			got := make(chan string)
			go func() { got <- r.Wait() }()
			select {
			case v := <-got:
				t.Fatalf("Wait returned %q before any Put", v)
			default:
			}
			r.Put("reply")
			if v := <-got; v != "reply" {
				t.Fatalf("Wait = %q, want reply", v)
			}
		}},
		{"a second put loses", func(t *testing.T) {
			var r Reply[int]
			r.Put(1)
			if r.Put(2) {
				t.Fatal("a second Put returned true")
			}
			if v := r.Wait(); v != 1 {
				t.Fatalf("Wait = %d after a second Put, want the first, 1", v)
			}
		}},
		{"every waiter gets the value", func(t *testing.T) {
			const waiters = 8
			var r Reply[int]
			got := make(chan int, waiters)
			for i := 0; i < waiters; i++ {
				go func() { got <- r.Wait() }()
			}
			r.Put(42)
			for i := 0; i < waiters; i++ {
				if v := <-got; v != 42 {
					t.Fatalf("waiter %d got %d, want 42", i, v)
				}
			}
		}},
		{"held by value it allocates nothing", func(t *testing.T) {
			type request struct {
				id   int
				done Reply[*int]
			}
			const runs = 100
			reqs := make([]request, runs+1) // AllocsPerRun runs once more to warm up
			v, i := 5, 0
			allocs := testing.AllocsPerRun(runs, func() {
				req := &reqs[i]
				i++
				req.done.Put(&v)
				if req.done.Wait() != &v {
					t.Fatal("Wait returned another pointer")
				}
			})
			if allocs != 0 {
				t.Fatalf("Put and Wait allocate %.1f objects, want 0", allocs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
