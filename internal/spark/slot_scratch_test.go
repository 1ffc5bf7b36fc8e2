package spark

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scratchJobs runs one ReduceByKey job and one GroupByKey job on c and
// returns what each collected, printed, and the CRC32C of every block each
// shuffle wrote (MapStatus.Sums).
func scratchJobs(t *testing.T, c *testCluster) (outputs []string, sums [][]uint32) {
	t.Helper()
	in := Generate(c.ctx, 6, func(part int, tc *TaskContext) []Pair[int64, int64] {
		rng := rand.New(rand.NewSource(2022 + int64(part)))
		out := make([]Pair[int64, int64], 300+100*part)
		for i := range out {
			out[i] = Pair[int64, int64]{K: int64(rng.Intn(90)), V: rng.Int63n(1000)}
		}
		return out
	})
	reduced := ReduceByKey(in, int64Conf(4), func(a, b int64) int64 { return a + b })
	grouped := GroupByKey(in, int64Conf(4))
	r, err := Collect(reduced)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Collect(grouped)
	if err != nil {
		t.Fatal(err)
	}
	sums = append(shuffleSums(t, c.ctx, reduced.deps), shuffleSums(t, c.ctx, grouped.deps)...)
	return []string{fmt.Sprint(r), fmt.Sprint(g)}, sums
}

// slotScratch applies f to every slot of c's executors, holding all of an
// executor's slots meanwhile, so that no task runs on them.
func slotScratch(c *testCluster, f func(s *slot)) {
	for _, e := range c.execs {
		held := make([]*slot, 0, e.nSlots)
		for range e.nSlots {
			s, _ := e.slots.Recv()
			held = append(held, s)
		}
		for _, s := range held {
			f(s)
			e.slots.Push(s)
		}
	}
}

// TestSlotScratchReuse runs the same ReduceByKey and GroupByKey jobs on a
// fresh cluster, whose slots start with no scratch, and again on the same
// cluster after every slot's scratch has been filled with arbitrary numbers:
// both runs collect the same outputs in the same order and write the same
// block bytes (MapStatus.Sums).
func TestSlotScratchReuse(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	out0, sums0 := scratchJobs(t, c)
	rng := rand.New(rand.NewSource(90210))
	used := 0
	slotScratch(c, func(s *slot) {
		used += len(s.scratch)
		for i := range s.scratch {
			s.scratch[i] = rng.Int31() - 1<<30
		}
	})
	if used == 0 {
		t.Fatal("no slot grew a scratch: the jobs' tasks carved nothing")
	}
	out1, sums1 := scratchJobs(t, c)
	if !reflect.DeepEqual(out1, out0) {
		t.Fatalf("reused scratch: outputs differ\n%.300s\nwant\n%.300s", out1, out0)
	}
	if !reflect.DeepEqual(sums1, sums0) {
		t.Fatal("reused scratch: map outputs have other checksums: the blocks' bytes differ between runs")
	}
}
