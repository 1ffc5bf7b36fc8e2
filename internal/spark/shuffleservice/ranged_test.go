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
// byte-exact and in map order.
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
		want := make([][]byte, 0, hi-lo)
		for m := lo; m < hi; m++ {
			want = append(want, svcBlock(m, reduceID, size+m))
		}
		checkRun(t, run, want)
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

// checkRun splits a served run by the blocks it should hold, as a reducer
// does with its map statuses' sizes and sums, and requires each piece to be
// its block byte for byte: the blocks' bytes, in their order, and nothing
// else.
func checkRun(t *testing.T, run []byte, want [][]byte) {
	t.Helper()
	sizes := make([]int64, len(want))
	sums := make([]uint32, len(want))
	for i, b := range want {
		sizes[i], sums[i] = int64(len(b)), shuffle.Checksum(b)
	}
	pieces, bad, ok := shuffle.SplitMergedRun(run, sizes, sums)
	if !ok || bad >= 0 {
		t.Fatalf("%d-byte run of %d blocks: split ok %v, first bad piece %d", len(run), len(want), ok, bad)
	}
	for i, p := range pieces {
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("piece %d of %d differs from its block", i, len(want))
		}
	}
}

// TestServiceOneBlockRunIsTheBlock: a run of one block is that block. Serving
// it, as a whole partition or as a map range, returns the pushed body itself
// and allocates nothing; only a run of two or more blocks is copied.
func TestServiceOneBlockRunIsTheBlock(t *testing.T) {
	const shuffleID, size = 23, 64 << 10
	svc := shuffleservice.New("svc-one-block", nil)
	push := func(m, r int) []byte {
		block := svcBlock(m, r, size)
		if _, err := svc.Push(shuffleID, m, r, block, shuffle.Checksum(block), 0); err != nil {
			t.Fatal(err)
		}
		return block
	}
	whole := push(3, 0) // reduce partition 0 holds one block
	for m := 0; m < 4; m++ {
		push(m, 1)
	}
	ranged := push(4, 1)
	push(5, 1)
	for _, c := range []struct {
		name string
		id   string
		body []byte
	}{
		{"whole", string(shuffle.MergedBlockID(shuffleID, 0)), whole},
		{"ranged", string(shuffle.RangedMergedBlockID(shuffleID, 1, 4, 5)), ranged},
	} {
		run, ok := svc.Resolve(c.id)
		if !ok || len(run) != len(c.body) || &run[0] != &c.body[0] {
			t.Fatalf("%s: ok %v, %d bytes; want the pushed %d-byte body itself", c.name, ok, len(run), len(c.body))
		}
		if allocs := testing.AllocsPerRun(20, func() { svc.Resolve(c.id) }); allocs != 0 {
			t.Fatalf("%s: serving a one-block run allocated %.0f times, want 0", c.name, allocs)
		}
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
