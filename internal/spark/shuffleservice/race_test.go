package shuffleservice_test

import (
	"bytes"
	"sync"
	"testing"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
)

// TestServiceConcurrentPushers drives many goroutines pushing distinct map
// outputs — with deliberate duplicate re-pushes — into one service while
// another goroutine concurrently resolves the merged run, exercising the
// push/merge locking under the race detector. The final run must hold
// every block exactly once, in map order, and pushed_bytes must count each
// unique block once.
func TestServiceConcurrentPushers(t *testing.T) {
	svc := shuffleservice.New("svc-race", nil)
	const (
		shuffleID = 3
		reduceID  = 0
		pushers   = 8
		perPusher = 25
		blockLen  = 64
	)
	before := metrics.Snapshot()

	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				mapID := g*perPusher + i
				block := svcBlock(mapID, reduceID, blockLen)
				for attempt := 0; attempt < 2; attempt++ { // second push is a duplicate
					if _, err := svc.Push(shuffleID, mapID, reduceID, block, shuffle.Checksum(block), 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	// Interleave merges with the pushes: every resolve must return whatever
	// has landed so far, whole blocks in map order. Every block has its own
	// content, so each piece names its map.
	const unique = pushers * perPusher
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			run, ok := svc.Resolve(string(shuffle.MergedBlockID(shuffleID, reduceID)))
			if !ok {
				continue
			}
			if len(run)%blockLen != 0 {
				t.Errorf("mid-push merged run of %d bytes is not whole %d-byte blocks", len(run), blockLen)
				return
			}
			next := 0
			for off := 0; off < len(run); off += blockLen {
				for next < unique && !bytes.Equal(run[off:off+blockLen], svcBlock(next, reduceID, blockLen)) {
					next++
				}
				if next == unique {
					t.Errorf("mid-push merged run: block at %d is no pushed block, or out of map order", off)
					return
				}
				next++
			}
		}
	}()
	wg.Wait()
	<-done

	run, ok := svc.Resolve(string(shuffle.MergedBlockID(shuffleID, reduceID)))
	if !ok {
		t.Fatal("no merged run after pushes")
	}
	want := make([][]byte, unique)
	for m := range want {
		want[m] = svcBlock(m, reduceID, blockLen)
	}
	checkRun(t, run, want) // every block exactly once, in map order
	if d := before.DeltaValue(shuffleservice.CounterPushedBytes); d != int64(unique*blockLen) {
		t.Fatalf("pushed_bytes delta = %d, want %d (duplicates must not count)", d, unique*blockLen)
	}
}
