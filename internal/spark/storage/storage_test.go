package storage

import (
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
