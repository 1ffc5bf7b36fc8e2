package spark

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// groupReference is what GroupByKey's reduce side must return for blocks:
// the keys in first-appearance order, each with its values in block order,
// built by decoding each block on its own and filing keys in a map.
func groupReference[K comparable, V any](t *testing.T, codec PairCodec[K, V], blocks [][]byte) []Pair[K, []V] {
	t.Helper()
	at := make(map[K]int)
	var out []Pair[K, []V]
	for _, b := range blocks {
		ps, err := DecodePairs(codec, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			i, seen := at[p.K]
			if !seen {
				i = len(out)
				at[p.K] = i
				out = append(out, Pair[K, []V]{K: p.K})
			}
			out[i].V = append(out[i].V, p.V)
		}
	}
	return out
}

// collidingStrings hashes every string key alike, so that each probe of a
// key index walks past every key numbered before it.
type collidingStrings struct{ StringKey }

func (collidingStrings) Hash(string) uint64 { return 42 }

// groupContexts are the task contexts groupBlocks runs under: one with no
// slot (driver side, tests), one on a slot with no scratch yet, and one on a
// slot whose scratch an earlier task left holding arbitrary numbers.
func groupContexts(rng *rand.Rand) map[string]func() *TaskContext {
	used := &slot{scratch: make([]int32, 1<<12)}
	for i := range used.scratch {
		used.scratch[i] = rng.Int31() - 1<<30
	}
	return map[string]func() *TaskContext{
		"heap":   func() *TaskContext { return &TaskContext{} },
		"fresh":  func() *TaskContext { return &TaskContext{slot: &slot{}} },
		"reused": func() *TaskContext { return &TaskContext{slot: used} },
	}
}

// diffGroup holds groupBlocks to groupReference over blocks under every
// groupContexts context, twice each, and holds merge (GroupByKey's
// partialMerge) over the groups of the map ranges that splits cut the blocks
// into to the same reference.
func diffGroup[K comparable](t *testing.T, conf ShuffleConf[K, int64], merge func(*TaskContext, [][]Pair[K, []int64]) []Pair[K, []int64], blocks [][]byte, splits []int) {
	t.Helper()
	want := groupReference(t, conf.Codec, blocks)
	for name, tc := range groupContexts(rand.New(rand.NewSource(2022))) {
		for run := 0; run < 2; run++ {
			got, err := groupBlocks(conf, blocks, tc())
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if !sameGroups(got, want) {
				t.Fatalf("%s run %d: groups\n%v\nwant\n%v", name, run, got, want)
			}
		}
		var subs [][]Pair[K, []int64]
		lo := 0
		for _, hi := range append(splits, len(blocks)) {
			sub, err := groupBlocks(conf, blocks[lo:hi], tc())
			if err != nil {
				t.Fatalf("%s maps [%d, %d): %v", name, lo, hi, err)
			}
			subs, lo = append(subs, sub), hi
		}
		if got := merge(&TaskContext{}, subs); !sameGroups(got, want) {
			t.Fatalf("%s: %d sub-tasks merge to\n%v\nwant\n%v", name, len(subs), got, want)
		}
	}
}

// sameGroups reports whether got and want hold the same groups in the same
// order; no groups is no groups, in a nil slice or an empty one.
func sameGroups[K comparable, V any](got, want []Pair[K, []V]) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// encodeBlocks cuts records [0, n) into blocks at the given record offsets,
// record i being (key(i), i): every value is distinct, so a value out of
// block order within its group shows.
func encodeBlocks[K any](codec PairCodec[K, int64], n int, cuts []int, key func(i int) K) [][]byte {
	var blocks [][]byte
	lo := 0
	for _, hi := range append(cuts, n) {
		pairs := make([]Pair[K, int64], 0, hi-lo)
		for i := lo; i < hi; i++ {
			pairs = append(pairs, Pair[K, int64]{K: key(i), V: int64(i)})
		}
		blocks, lo = append(blocks, EncodePairs(codec, pairs)), hi
	}
	return blocks
}

// TestGroupByKeyDifferential holds GroupByKey's reduce side, and its merge of
// a split partition, to the reference grouping: keys in first-appearance
// order, values in block order. A placement that is not stable within a
// group (American-flag swaps, say) fails it. The shapes: string keys whose
// hashes all collide, empty blocks between full ones, a single key, every
// key distinct, and keys spread over a few dozen.
func TestGroupByKeyDifferential(t *testing.T) {
	c := newTestCluster(t, 1, 1, BackendVanilla)
	rng := rand.New(rand.NewSource(2022))
	ints := ShuffleConf[int64, int64]{Codec: PairCodec[int64, int64]{Key: Int64Codec{}, Val: Int64Codec{}}, Ops: Int64Key{}, Parts: 1}
	intMerge := GroupByKey(Parallelize(c.ctx, []Pair[int64, int64]{}, 1), ints).partialMerge
	spread := make([]int64, 3000)
	for i := range spread {
		spread[i] = rng.Int63n(40)
	}
	for _, s := range []struct {
		name   string
		n      int
		cuts   []int // record offsets where a block ends
		splits []int // block indices where a sub-task's map range ends
		key    func(i int) int64
	}{
		{"one-key", 500, []int{100, 250, 251}, []int{1, 3}, func(int) int64 { return 7 }},
		{"distinct", 700, []int{300, 301, 650}, []int{2}, func(i int) int64 { return int64(i*7919) - 3000 }},
		{"spread", len(spread), []int{400, 1100, 1500, 2900}, []int{1, 2, 4}, func(i int) int64 { return spread[i] }},
		{"empty-between", 600, []int{0, 200, 200, 200, 450, 600}, []int{1, 4}, func(i int) int64 { return int64(i % 13) }},
		{"no-records", 0, []int{0, 0}, []int{1}, func(i int) int64 { return 0 }},
	} {
		t.Run(s.name, func(t *testing.T) {
			diffGroup(t, ints, intMerge, encodeBlocks(ints.Codec, s.n, s.cuts, s.key), s.splits)
		})
	}
	t.Run("empty-between/nil-blocks", func(t *testing.T) {
		// A split sub-task's blocks outside its map range are empty slices.
		full := encodeBlocks(ints.Codec, 300, []int{120}, func(i int) int64 { return int64(i % 9) })
		diffGroup(t, ints, intMerge, [][]byte{nil, full[0], {}, nil, full[1], nil}, []int{2, 3})
	})
	t.Run("string-colliding", func(t *testing.T) {
		strs := ShuffleConf[string, int64]{Codec: PairCodec[string, int64]{Key: StringCodec{}, Val: Int64Codec{}}, Ops: collidingStrings{}, Parts: 1}
		strMerge := GroupByKey(Parallelize(c.ctx, []Pair[string, int64]{}, 1), strs).partialMerge
		key := func(i int) string { k := (i * 37) % 211; return fmt.Sprintf("k%0*d", 1+k%5, k) }
		diffGroup(t, strs, strMerge, encodeBlocks(strs.Codec, 1500, []int{500, 900, 901}, key), []int{1, 3})
	})
}
