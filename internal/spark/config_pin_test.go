package spark

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// TestUnvariedConstantsPinned holds the values no caller of this repository
// varies, as a cluster built from DefaultConfig() and one built from the zero
// Config both see them: the fetch retry policy, chunk size and breaker knobs
// on every executor's shuffle manager, the LaunchTask payload size, and the
// per-task attempt cap. A refactor of how those values reach their readers
// must leave this test passing unedited.
func TestUnvariedConstantsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// launchPayload: the payload size is pinned from DefaultConfig(),
		// which every launch path in the repository starts from.
		launchPayload bool
	}{
		{"DefaultConfig", DefaultConfig(), true},
		{"zero Config", Config{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestClusterWith(t, 2, 1, BackendVanilla, tc.cfg)

			wantRetry := shuffle.RetryPolicy{
				MaxRetries:    3,
				RetryWait:     200 * time.Microsecond,
				FetchDeadline: 100 * time.Millisecond,
				JitterFrac:    0.5,
			}
			for _, e := range c.execs {
				if e.sm.Retry != wantRetry {
					t.Errorf("%s: Retry = %+v, want %+v", e.id, e.sm.Retry, wantRetry)
				}
				if e.sm.ChunkBytes != 1<<20 {
					t.Errorf("%s: ChunkBytes = %d, want 1 MiB", e.id, e.sm.ChunkBytes)
				}
				if e.sm.BreakerThreshold != 12 {
					t.Errorf("%s: breaker threshold = %d, want 12", e.id, e.sm.BreakerThreshold)
				}
				if e.sm.BreakerCooldown != 0 {
					t.Errorf("%s: BreakerCooldown = %v, want 0 (the manager's 5ms default)",
						e.id, e.sm.BreakerCooldown)
				}
			}

			// The LaunchTask payload, seen as what the driver's NIC carries
			// for a one-task job once its connections are warm: one message,
			// the frame head plus the modelled task binary and closure.
			one := Generate(c.ctx, 1, func(part int, tc *TaskContext) []int64 { return []int64{1} })
			for i := 0; i < len(c.execs); i++ { // round robin: warm every executor's connection
				if _, err := Count(one); err != nil {
					t.Fatal(err)
				}
			}
			var mu sync.Mutex
			var sent []int
			c.fab.SetTransferHook(func(from, to *fabric.Node, _ fabric.Protocol, n int, _ vtime.Stamp) {
				if from.Name() == "driver-node" && to.Name() != "driver-node" {
					mu.Lock()
					sent = append(sent, n)
					mu.Unlock()
				}
			})
			if _, err := Count(one); err != nil {
				t.Fatal(err)
			}
			c.fab.SetTransferHook(nil)
			mu.Lock()
			got := fmt.Sprint(sent)
			mu.Unlock()
			if want := fmt.Sprint([]int{launchTaskWireBytes}); tc.launchPayload && got != want {
				t.Errorf("driver sent %s bytes for a one-task job, want %s", got, want)
			}

			// A task failing with a plain error runs three times, then the
			// job fails.
			var runs atomic.Int32
			failing := MapPartitions(one, func(part int, tc *TaskContext, items []int64) ([]int64, error) {
				runs.Add(1)
				return nil, fmt.Errorf("always fails")
			})
			if _, err := Count(failing); err == nil {
				t.Fatal("a task that always fails produced a result")
			}
			if n := runs.Load(); n != 3 {
				t.Errorf("failing task ran %d times, want 3", n)
			}
		})
	}
}

// launchTaskWireBytes is one LaunchTask message on the wire: the 1024-byte
// modelled task binary and closure behind a 31-byte frame and rpc head.
const launchTaskWireBytes = 1024 + 31
