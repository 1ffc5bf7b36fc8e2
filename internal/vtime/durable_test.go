//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package vtime

import (
	"testing"
	"testing/synctest"
)

// TestDurableWaits checks, in a synctest bubble, that a goroutine blocked in
// each primitive's wait is durably blocked (synctest.Wait returns while it
// waits) and that the primitive's own signal wakes it. A wait synctest did
// not count as durable would hang the bubble instead.
//
// Run with GOEXPERIMENT=synctest go test -run Durable ./internal/vtime/
// (make durable); a plain go test does not build this file. go.mod's go
// 1.22 defaults asynctimerchan to 1, which synctest.Run refuses, hence the
// go:debug line.
func TestDurableWaits(t *testing.T) {
	cases := []struct {
		name string
		// start returns a wait to run on its own goroutine and the signal
		// that ends it.
		start func() (wait, wake func())
	}{
		{"Mailbox.Recv", func() (func(), func()) {
			var m Mailbox[int]
			return func() { m.Recv() }, func() { m.Push(1) }
		}},
		{"Reply.Wait", func() (func(), func()) {
			var r Reply[int]
			return func() { r.Wait() }, func() { r.Put(1) }
		}},
		{"Signal.Park", func() (func(), func()) {
			var s Signal
			return func() { s.Park(true) }, s.Wake
		}},
		{"Group.Wait", func() (func(), func()) {
			var g Group
			var release Mailbox[struct{}]
			g.Go(func() error {
				release.Recv()
				return nil
			})
			return func() { g.Wait() }, func() { release.Push(struct{}{}) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The bubble's root is not the test's goroutine: it reports
			// with t.Error.
			synctest.Run(func() {
				wait, wake := tc.start()
				returned := false
				go func() {
					wait()
					returned = true
				}()
				synctest.Wait()
				if returned {
					t.Error("the wait returned before its signal")
				}
				wake()
				synctest.Wait()
				if !returned {
					t.Error("the signal did not wake the wait")
				}
			})
		})
	}
}
