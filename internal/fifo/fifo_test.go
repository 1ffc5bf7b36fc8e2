package fifo

import (
	"math/rand"
	"testing"
)

// checkSlots fails unless every slot of q's array outside the queued values
// is zero: nothing popped, and nothing moved by a compaction, is still
// referenced.
func checkSlots(t *testing.T, q *Queue[*int]) {
	t.Helper()
	all := q.buf[:cap(q.buf)]
	for i, p := range all {
		if (i < q.head || i >= len(q.buf)) && p != nil {
			t.Fatalf("slot %d of %d holds %d outside the queue [%d, %d)", i, len(all), *p, q.head, len(q.buf))
		}
	}
}

// TestQueueMatchesSliceModel runs seeded push/pop sequences against a plain
// slice: every pop returns what the model's front holds, Len always agrees,
// and no slot outside the queue keeps a value.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[*int]
		var model []*int
		// A drift toward push or pop per phase sweeps the length up and down,
		// across compactions, growths and rewinds.
		for phase := 0; phase < 20; phase++ {
			pushBias := rng.Intn(100)
			for op := 0; op < 200; op++ {
				if rng.Intn(100) < pushBias {
					v := new(int)
					*v = rng.Int()
					q.Push(v)
					model = append(model, v)
				} else {
					got, ok := q.Pop()
					if ok != (len(model) > 0) {
						t.Fatalf("seed %d: Pop ok=%v with %d modelled", seed, ok, len(model))
					}
					if ok {
						if got != model[0] {
							t.Fatalf("seed %d: Pop returned %d, model's front is %d", seed, *got, *model[0])
						}
						model = model[1:]
					}
				}
				if q.Len() != len(model) {
					t.Fatalf("seed %d: Len %d, model %d", seed, q.Len(), len(model))
				}
				checkSlots(t, &q)
			}
		}
	}
}

// TestQueueSteadyStateAllocatesNothing: once a queue has held its high-water
// mark, pushing and popping at any length up to that mark allocates nothing.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, depth := range []int{0, 1, 3, 8, 100} {
		var q Queue[*int]
		v := new(int)
		for i := 0; i <= depth; i++ {
			q.Push(v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
		for i := 0; i < depth; i++ {
			q.Push(v)
		}
		if n := testing.AllocsPerRun(1000, func() {
			q.Push(v)
			q.Pop()
		}); n != 0 {
			t.Errorf("one in, one out at depth %d: %v allocations, want 0", depth, n)
		}
	}
}
