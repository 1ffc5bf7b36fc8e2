package vtime

import "testing"

// TestSignal pins the wake signal's contract, one behaviour per case.
func TestSignal(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"two wakes leave one token", func(t *testing.T) {
			var s Signal
			s.Wake()
			s.Wake()
			if !s.Park(false) {
				t.Fatal("Park on an open signal returned false")
			}
			if s.token {
				t.Fatal("a token is left after one Park took two Wakes")
			}
		}},
		{"a poll with no token returns at once", func(t *testing.T) {
			var s Signal
			if !s.Park(false) {
				t.Fatal("a poll of an open signal returned false")
			}
		}},
		{"a token left before a park wakes it", func(t *testing.T) {
			var s Signal
			s.Wake()
			if !s.Park(true) {
				t.Fatal("Park on an open signal returned false")
			}
		}},
		{"close wakes a parked waiter", func(t *testing.T) {
			var s Signal
			got := make(chan bool)
			go func() { got <- s.Park(true) }()
			s.Close()
			if <-got {
				t.Fatal("Park returned true on a closed signal")
			}
		}},
		{"close wins over a pending token", func(t *testing.T) {
			var s Signal
			s.Wake()
			s.Close()
			if s.Park(false) || s.Park(true) {
				t.Fatal("Park returned true on a closed signal with a token")
			}
		}},
		{"wake after close and close twice", func(t *testing.T) {
			var s Signal
			s.Close()
			s.Wake()
			s.Close()
			if s.Park(true) {
				t.Fatal("Park returned true on a closed signal")
			}
		}},
		{"held by value it allocates nothing", func(t *testing.T) {
			type loop struct {
				id   int
				wake Signal
			}
			var l loop
			allocs := testing.AllocsPerRun(100, func() {
				l.wake.Wake()
				if !l.wake.Park(true) {
					t.Fatal("Park returned false")
				}
			})
			if allocs != 0 {
				t.Fatalf("Wake and Park allocate %.1f objects, want 0", allocs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
