package spark

import "testing"

// collectAssignments partitions every key in [0, maxKey) and returns the
// set of partitions that received at least one key.
func usedPartitions(p RangePartitioner[int64], maxKey int64) map[int]bool {
	used := make(map[int]bool)
	for k := int64(0); k < maxKey; k++ {
		used[p.PartitionFor(k)] = true
	}
	return used
}

func TestNewRangePartitionerDedupesBounds(t *testing.T) {
	// A heavily repeated sample: 20 copies of key 7, a few outliers.
	sample := make([]int64, 0, 24)
	for i := 0; i < 20; i++ {
		sample = append(sample, 7)
	}
	sample = append(sample, 1, 2, 100, 200)
	p := NewRangePartitioner(sample, 8, Int64Key{})
	ops := Int64Key{}
	for i := 1; i < len(p.Bounds); i++ {
		if !ops.Less(p.Bounds[i-1], p.Bounds[i]) {
			t.Fatalf("bounds not strictly increasing: %v", p.Bounds)
		}
	}
	if n := p.NumPartitions(); n > 8 {
		t.Fatalf("NumPartitions = %d, want <= 8", n)
	}
	// Every partition must be reachable: with strictly increasing bounds
	// there is a key range mapping to each index.
	used := usedPartitions(p, 300)
	if len(used) != p.NumPartitions() {
		t.Fatalf("only %d of %d partitions reachable (bounds %v)",
			len(used), p.NumPartitions(), p.Bounds)
	}
}

func TestNewRangePartitionerMorePartitionsThanSample(t *testing.T) {
	// n far exceeds the sample size: the partitioner must degrade to at
	// most len(distinct sample) partitions, never emit duplicate bounds,
	// and keep every partition non-structurally-empty.
	sample := []int64{5, 10, 15}
	p := NewRangePartitioner(sample, 16, Int64Key{})
	ops := Int64Key{}
	if n := p.NumPartitions(); n > len(sample)+1 {
		t.Fatalf("NumPartitions = %d, want <= %d", n, len(sample)+1)
	}
	for i := 1; i < len(p.Bounds); i++ {
		if !ops.Less(p.Bounds[i-1], p.Bounds[i]) {
			t.Fatalf("bounds not strictly increasing: %v", p.Bounds)
		}
	}
	used := usedPartitions(p, 32)
	if len(used) != p.NumPartitions() {
		t.Fatalf("only %d of %d partitions reachable (bounds %v)",
			len(used), p.NumPartitions(), p.Bounds)
	}
	// Order preservation: larger keys never land in earlier partitions.
	last := -1
	for k := int64(0); k < 32; k++ {
		part := p.PartitionFor(k)
		if part < last {
			t.Fatalf("key %d mapped to partition %d after partition %d", k, part, last)
		}
		last = part
	}
}

func TestNewRangePartitionerEmptySample(t *testing.T) {
	p := NewRangePartitioner(nil, 4, Int64Key{})
	if n := p.NumPartitions(); n != 1 {
		t.Fatalf("empty sample: NumPartitions = %d, want 1", n)
	}
	if got := p.PartitionFor(42); got != 0 {
		t.Fatalf("empty sample: PartitionFor = %d, want 0", got)
	}
}

// TestStringKeyHashPinned holds StringKey.Hash to fixed values: a key's
// partition, and so the order a job prints its output in, may not depend on
// the process.
func TestStringKeyHashPinned(t *testing.T) {
	for _, c := range []struct {
		key  string
		want uint64
	}{
		{"", 0xf52a15e9a9b5e89b},
		{"a", 0x2c0bdbf481420f8},
		{"spark", 0x9b3700ca0569136e},
		{"mpi", 0xa0bee0f0b7dd4a32},
		{"Spark Meets MPI", 0x2888a872f6b483dd},
	} {
		if got := (StringKey{}).Hash(c.key); got != c.want {
			t.Errorf("StringKey.Hash(%q) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

// collidingKeys hashes every key alike, so that each lookup probes past all
// the keys before it.
type collidingKeys struct{ Int64Key }

func (collidingKeys) Hash(int64) uint64 { return 42 }

// TestKeyIndexFirstAppearanceOrder numbers keys through several doublings
// of the slab, with a real hash and with one under which every key
// collides, against the numbering a map gives.
func TestKeyIndexFirstAppearanceOrder(t *testing.T) {
	for _, ops := range []KeyOps[int64]{Int64Key{}, collidingKeys{}} {
		x := newKeyIndex(ops)
		var held []Pair[int64, struct{}] // the caller's key at each number
		want := make(map[int64]int32)
		for i := 0; i < 3000; i++ {
			k := int64(i*7919) % 701 // repeats after 701 distinct keys
			g, fresh := numberOf(&x, held, k, int32(len(held)))
			if fresh {
				held = append(held, Pair[int64, struct{}]{K: k})
			}
			w, seen := want[k]
			if !seen {
				w = int32(len(want))
				want[k] = w
			}
			if g != w || fresh == seen {
				t.Fatalf("%T: key %d numbered %d (fresh %v), want %d (fresh %v)", ops, k, g, fresh, w, !seen)
			}
		}
		if x.n != len(want) || 2*x.n > len(x.slots) {
			t.Fatalf("%T: %d keys in %d slots, want %d keys in at most half", ops, x.n, len(x.slots), len(want))
		}
	}
}
