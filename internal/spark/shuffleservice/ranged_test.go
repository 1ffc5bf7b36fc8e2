package shuffleservice_test

import (
	"bytes"
	"runtime"
	"testing"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
)

// TestServiceRangedReadsReconcile reads a split partition the way its
// sub-tasks do — in disjoint map ranges only, never whole — with a late
// push between two reads. Merge accounting must not depend on a full run
// ever being encoded: pushed == merged == served in both counters and
// events, each pushed byte merged exactly once, and every range's entries
// byte-exact with their ingest-time sums.
func TestServiceRangedReadsReconcile(t *testing.T) {
	const shuffleID, reduceID, nMaps, size = 21, 0, 12, 4096
	svc := shuffleservice.New("svc-ranged", nil)
	bus, col := obs.NewBus(), &obs.Collector{}
	bus.Subscribe(col)
	svc.SetBus(bus)
	push := func(m int) {
		block := svcBlock(m, reduceID, size+m)
		if _, err := svc.Push(shuffleID, m, reduceID, block, shuffle.Checksum(block), 0); err != nil {
			t.Fatal(err)
		}
	}
	readRange := func(lo, hi int) {
		run, ok := svc.Resolve(string(shuffle.RangedMergedBlockID(shuffleID, reduceID, lo, hi)))
		if !ok {
			t.Fatalf("range [%d,%d) missed", lo, hi)
		}
		entries, err := shuffle.DecodeMergedRun(run)
		if err != nil || len(entries) != hi-lo {
			t.Fatalf("range [%d,%d): %d entries, %v", lo, hi, len(entries), err)
		}
		for i, e := range entries {
			want := svcBlock(lo+i, reduceID, size+lo+i)
			if e.MapID != lo+i || e.Sum != shuffle.Checksum(want) || !bytes.Equal(e.Data, want) {
				t.Fatalf("range [%d,%d): entry %d is map %d, corrupted or out of order", lo, hi, i, e.MapID)
			}
		}
	}

	before := metrics.Snapshot()
	for m := 0; m < nMaps-1; m++ {
		push(m)
	}
	readRange(0, 4)
	readRange(4, 8)
	push(nMaps - 1) // lands after the partition's first reads: merged as a delta
	readRange(8, nMaps)

	pushed := before.DeltaValue(shuffleservice.CounterPushedBytes)
	merged := before.DeltaValue(shuffleservice.CounterMergedBytes)
	served := before.DeltaValue(shuffleservice.CounterServedBytes)
	if want := int64(nMaps*size + nMaps*(nMaps-1)/2); pushed != want || merged != pushed || served != pushed {
		t.Fatalf("pushed %d, merged %d, served %d bytes; want all %d", pushed, merged, served, want)
	}
	byType := map[string]int64{}
	for _, e := range col.Events() {
		byType[e.Type] += int64(e.Bytes)
	}
	if byType[obs.EvShufflePush] != pushed || byType[obs.EvShuffleMerge] != merged || byType[obs.EvShuffleServe] != served {
		t.Fatalf("event bytes push %d, merge %d, serve %d do not reconcile with the counters (%d)",
			byType[obs.EvShufflePush], byType[obs.EvShuffleMerge], byType[obs.EvShuffleServe], pushed)
	}
}

// TestServiceRangedReadAllocatesItsRange: serving a map range allocates the
// range's run once — not the full run as well, and not twice.
func TestServiceRangedReadAllocatesItsRange(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const shuffleID, reduceID, nMaps, size = 22, 0, 16, 128 << 10
	svc := shuffleservice.New("svc-ranged-alloc", nil)
	for m := 0; m < nMaps; m++ {
		block := svcBlock(m, reduceID, size)
		if _, err := svc.Push(shuffleID, m, reduceID, block, shuffle.Checksum(block), 0); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < nMaps; lo += 4 {
		id := string(shuffle.RangedMergedBlockID(shuffleID, reduceID, lo, lo+4))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run, ok := svc.Resolve(id)
		runtime.ReadMemStats(&m1)
		if !ok {
			t.Fatalf("range [%d,%d) missed", lo, lo+4)
		}
		if x := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(4*size); x > 1.1 {
			t.Fatalf("range [%d,%d): serving a %d-byte run allocated %.2fx the range's bytes, budget 1.1x", lo, lo+4, len(run), x)
		}
	}
}
