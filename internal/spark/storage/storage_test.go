package storage

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestShuffleBlockIDFormat(t *testing.T) {
	if got := ShuffleBlockID(1, 2, 3); got != "shuffle_1_2_3" {
		t.Fatalf("ShuffleBlockID = %q", got)
	}
	// The widest ids there are still fit the array the name is built in.
	if got, want := ShuffleBlockID(-1<<63, 1<<63-1, -1), BlockID("shuffle_-9223372036854775808_9223372036854775807_-1"); got != want {
		t.Fatalf("ShuffleBlockID = %q, want %q", got, want)
	}
}

func TestPutGetRemove(t *testing.T) {
	bm := NewBlockManager("exec-1")
	id := ShuffleBlockID(0, 0, 0)
	if _, ok := bm.Get(id); ok {
		t.Fatal("get on empty store")
	}
	bm.Put(id, []byte("abc"))
	d, ok := bm.Get(id)
	if !ok || string(d) != "abc" {
		t.Fatalf("get = %q, %v", d, ok)
	}
	if bm.StoredBytes() != 3 || bm.BlockCount() != 1 {
		t.Fatalf("accounting: %d bytes, %d blocks", bm.StoredBytes(), bm.BlockCount())
	}
	if !bm.Remove(id) {
		t.Fatal("remove existing returned false")
	}
	if bm.Remove(id) {
		t.Fatal("double remove returned true")
	}
	if bm.StoredBytes() != 0 {
		t.Fatalf("bytes after remove = %d", bm.StoredBytes())
	}
}

func TestPutReplaceAccounting(t *testing.T) {
	bm := NewBlockManager("e")
	bm.Put("x", make([]byte, 100))
	bm.Put("x", make([]byte, 40))
	if bm.StoredBytes() != 40 {
		t.Fatalf("bytes = %d, want 40", bm.StoredBytes())
	}
}

func TestRemoveShuffle(t *testing.T) {
	bm := NewBlockManager("e")
	for m := 0; m < 3; m++ {
		for r := 0; r < 4; r++ {
			bm.Put(ShuffleBlockID(7, m, r), []byte{1})
			bm.Put(ShuffleBlockID(8, m, r), []byte{2})
		}
	}
	bm.Put("rdd_1_0", []byte{3})
	if n := bm.RemoveShuffle(7); n != 12 {
		t.Fatalf("removed %d, want 12", n)
	}
	if bm.BlockCount() != 13 {
		t.Fatalf("remaining = %d, want 13", bm.BlockCount())
	}
	// Prefix must not over-match shuffle_70_...
	bm.Put("shuffle_70_0_0", []byte{4})
	if n := bm.RemoveShuffle(7); n != 0 {
		t.Fatalf("over-matched prefix: removed %d", n)
	}
}

// Property: byte accounting equals the sum of stored block sizes under any
// sequence of puts.
func TestByteAccountingProperty(t *testing.T) {
	f := func(ops []struct {
		Key  uint8
		Size uint16
	}) bool {
		bm := NewBlockManager("e")
		want := map[uint8]int64{}
		for _, op := range ops {
			bm.Put(BlockID(string(rune('a'+op.Key%16))), make([]byte, op.Size))
			want[op.Key%16] = int64(op.Size)
		}
		var total int64
		for _, v := range want {
			total += v
		}
		return bm.StoredBytes() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMapOutputStore: a map output is one entry that every canonical id of
// its blocks resolves into, empty blocks included; anything else misses. A
// re-put (a retried task) replaces it, RemoveShuffle removes only its
// shuffle's outputs, and the accounting follows without double counting.
// Each canonical id has one owner: Put and PutMapOutput replace each other
// under it, whichever comes later, and a Put into a stored output leaves
// the caller's slice alone.
func TestMapOutputStore(t *testing.T) {
	bm := NewBlockManager("e")
	bm.Put("broadcast_3", []byte("bcast"))
	bm.PutMapOutput(7, 0, [][]byte{[]byte("aa"), nil, []byte("cccc")})
	bm.PutMapOutput(7, 1, [][]byte{[]byte("d"), []byte("ee"), {}})
	bm.PutMapOutput(8, 0, [][]byte{[]byte("ffffff")})
	check := func(bytes int64, blocks int) {
		t.Helper()
		if bm.StoredBytes() != bytes || bm.BlockCount() != blocks {
			t.Fatalf("accounting: %d bytes in %d blocks, want %d in %d", bm.StoredBytes(), bm.BlockCount(), bytes, blocks)
		}
	}
	check(5+6+3+6, 1+3+3+1)
	for _, c := range []struct {
		id   BlockID
		want string
	}{
		{"shuffle_7_0_0", "aa"}, {"shuffle_7_0_1", ""}, {"shuffle_7_0_2", "cccc"},
		{"shuffle_7_1_2", ""}, {"shuffle_8_0_0", "ffffff"}, {"broadcast_3", "bcast"},
	} {
		if d, ok := bm.Get(c.id); !ok || string(d) != c.want {
			t.Errorf("Get(%q) = %q, %v; want %q", c.id, d, ok, c.want)
		}
	}
	if d, ok := bm.MapOutputBlock(7, 0, 2); !ok || string(d) != "cccc" {
		t.Errorf("MapOutputBlock(7, 0, 2) = %q, %v", d, ok)
	}
	for _, id := range []BlockID{"shuffle_07_0_0", "shuffle_7_00_0", "shuffle_7_0_01", "shuffle_7_0_3", "shuffle_7_0_-1", "shuffle_7_2_0", "shuffle_9_0_0", "shuffle_7_0", "shuffle_7_0_0_0", "shuffle_7_0_0 "} {
		if d, ok := bm.Get(id); ok {
			t.Errorf("Get(%q) = %q, want a miss", id, d)
		}
	}
	if _, ok := bm.MapOutputBlock(7, 0, 3); ok {
		t.Error("MapOutputBlock past the last reducer hit")
	}

	// A retried task's output replaces the first attempt's.
	bm.PutMapOutput(7, 1, [][]byte{[]byte("gggg"), nil})
	check(5+6+4+6, 1+3+2+1)
	if _, ok := bm.Get("shuffle_7_1_2"); ok {
		t.Error("a block of the replaced output still resolves")
	}
	if d, _ := bm.Get("shuffle_7_1_0"); string(d) != "gggg" {
		t.Errorf("Get(shuffle_7_1_0) = %q after the re-put, want gggg", d)
	}

	if n := bm.RemoveShuffle(7); n != 3+2 {
		t.Fatalf("RemoveShuffle(7) removed %d blocks, want 5", n)
	}
	check(5+6, 1+1)
	if _, ok := bm.Get("shuffle_7_0_0"); ok {
		t.Error("a removed shuffle's block still resolves")
	}
	for _, id := range []BlockID{"shuffle_8_0_0", "broadcast_3"} {
		if _, ok := bm.Get(id); !ok {
			t.Errorf("%s went with shuffle 7", id)
		}
	}
	if n := bm.RemoveShuffle(7); n != 0 {
		t.Fatalf("second RemoveShuffle(7) removed %d", n)
	}

	// Each canonical id has one owner; the later write wins.
	bm = NewBlockManager("e")
	get := func(id BlockID, want string) {
		t.Helper()
		if d, ok := bm.Get(id); !ok || string(d) != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", id, d, ok, want)
		}
	}

	// Put after PutMapOutput replaces the output's block.
	parts := [][]byte{[]byte("aa"), []byte("bbb")}
	bm.PutMapOutput(1, 0, parts)
	bm.Put(ShuffleBlockID(1, 0, 1), []byte("ZZZZZ"))
	get("shuffle_1_0_1", "ZZZZZ")
	if d, _ := bm.MapOutputBlock(1, 0, 1); string(d) != "ZZZZZ" {
		t.Errorf("MapOutputBlock(1, 0, 1) = %q after the Put, want ZZZZZ", d)
	}
	if string(parts[1]) != "bbb" {
		t.Errorf("the Put wrote into the caller's parts: %q", parts[1])
	}
	check(2+5, 2)

	// A canonical id past the output's last reducer is a block of its own.
	bm.Put(ShuffleBlockID(1, 0, 2), []byte("c"))
	get("shuffle_1_0_2", "c")
	check(2+5+1, 3)

	// PutMapOutput after Put takes over the ids its blocks name.
	bm.Put(ShuffleBlockID(2, 0, 0), []byte("old"))
	bm.Put(ShuffleBlockID(2, 0, 1), []byte("kept"))
	check(2+5+1+3+4, 5)
	bm.PutMapOutput(2, 0, [][]byte{[]byte("new!")})
	get("shuffle_2_0_0", "new!")
	get("shuffle_2_0_1", "kept")
	check(2+5+1+4+4, 5)

	// A re-put drops the earlier Put into the replaced output.
	bm.PutMapOutput(1, 0, [][]byte{[]byte("x"), []byte("y")})
	get("shuffle_1_0_1", "y")
	check(1+1+1+4+4, 5)

	if !bm.Remove(ShuffleBlockID(1, 0, 2)) || bm.Remove(ShuffleBlockID(1, 0, 1)) {
		t.Fatal("Remove: want a hit on the Put block only, not on a map output's")
	}
	if n := bm.RemoveShuffle(2); n != 2 {
		t.Fatalf("RemoveShuffle(2) removed %d blocks, want 2", n)
	}
	check(1+1, 2)
	if bm.named != 0 {
		t.Fatalf("%d canonical ids counted among the Put blocks, want 0", bm.named)
	}
}

// FuzzResolveBlockID: Get parses ids that arrive as wire data and indexes a
// map output's blocks with them. Whatever the string, it does not panic, and
// it hits exactly the canonical ids of stored outputs whose reduce id is
// below that output's block count, with that block.
func FuzzResolveBlockID(f *testing.F) {
	outputs := map[[2]int][][]byte{
		{0, 0}: {[]byte("a"), nil, []byte("ccc")},
		{0, 1}: {[]byte("dd")},
		{3, 2}: {nil, []byte("e"), []byte("ff"), []byte("g")},
	}
	bm := NewBlockManager("e")
	for k, parts := range outputs {
		bm.PutMapOutput(k[0], k[1], parts)
	}
	for _, id := range []string{"shuffle_0_0_2", "shuffle_0_0_3", "shuffle_3_2_0", "shuffle_03_2_0", "shuffle_0_1_-1", "shuffle_9223372036854775807_0_0", "shuffleMerged_0_0", "broadcast_0"} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		d, ok := bm.Get(BlockID(id))
		s, m, r, canonical := ParseShuffleBlockID(id)
		parts, stored := outputs[[2]int{s, m}]
		want := canonical && stored && r < len(parts) && string(ShuffleBlockID(s, m, r)) == id
		if ok != want || ok && !bytes.Equal(d, parts[r]) {
			t.Fatalf("Get(%q) = %q, %v; want a hit %v", id, d, ok, want)
		}
	})
}
