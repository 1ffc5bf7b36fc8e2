package shuffle_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/storage"
)

func TestMergedBlockIDRoundTrip(t *testing.T) {
	id := shuffle.MergedBlockID(12, 34)
	s, r, ok := shuffle.ParseMergedBlockID(string(id))
	if !ok || s != 12 || r != 34 {
		t.Fatalf("ParseMergedBlockID(%q) = %d, %d, %v", id, s, r, ok)
	}
	// Ordinary shuffle block ids must not parse as merged runs, and merged
	// ids must not share the shuffle_ prefix BlockManager.RemoveShuffle
	// sweeps (the service evicts runs itself via its merge index).
	if _, _, ok := shuffle.ParseMergedBlockID("shuffle_1_2_3"); ok {
		t.Fatal("plain shuffle block id parsed as a merged run")
	}
	if _, _, ok := shuffle.ParseMergedBlockID("rdd_4_1"); ok {
		t.Fatal("rdd block id parsed as a merged run")
	}
}

// blockIDCases are ids each of the three parsers must take or refuse. Those
// marked "Sscanf" are what a prefix-reading fmt.Sscanf parser, which allows
// signs and spaces, would take.
var blockIDCases = []struct {
	id                      string
	shuffle, merged, ranged bool
}{
	{id: "shuffle_1_2_3", shuffle: true},
	{id: "shuffle_0_0_0", shuffle: true},
	{id: "shuffle_9223372036854775807_0_10", shuffle: true},
	{id: "shuffleMerged_12_34", merged: true},
	{id: "shuffleMergedRange_1_2_3_4", ranged: true},
	{id: "shuffleMergedRange_1_2_0_1", ranged: true},
	{id: "shuffleMerged_1_2_3"},            // Sscanf
	{id: "shuffleMerged_1_2junk"},          // Sscanf
	{id: "shuffleMerged_ 1_2"},             // Sscanf
	{id: "shuffleMerged_+1_2"},             // Sscanf
	{id: "shuffleMergedRange_1_2_3_4junk"}, // Sscanf
	{id: "shuffleMergedRange_1_2_5_4"},     // Sscanf: lo > hi
	{id: "shuffleMergedRange_1_2_4_4"},     // an empty range
	{id: "shuffleMergedRange_1_2_-1_4"},    // Sscanf: negative lo
	{id: "shuffle_1_2"},
	{id: "shuffle_1_2_3_4"},
	{id: "shuffle_01_2_3"},
	{id: "shuffle_-1_2_3"},
	{id: "shuffle_1_2_3 "},
	{id: "shuffle__1_2_3"},
	{id: "shuffle_1_2_9223372036854775808"},
	{id: "shuffle"},
	{id: "rdd_4_1"},
	{id: ""},
}

// TestParseBlockIDsCanonical: each block-id parser accepts exactly what its
// formatter writes, and nothing else.
func TestParseBlockIDsCanonical(t *testing.T) {
	for _, c := range blockIDCases {
		if s, m, r, ok := storage.ParseShuffleBlockID(c.id); ok != c.shuffle || ok && string(storage.ShuffleBlockID(s, m, r)) != c.id {
			t.Errorf("ParseShuffleBlockID(%q) = %d, %d, %d, %v", c.id, s, m, r, ok)
		}
		if s, r, ok := shuffle.ParseMergedBlockID(c.id); ok != c.merged || ok && string(shuffle.MergedBlockID(s, r)) != c.id {
			t.Errorf("ParseMergedBlockID(%q) = %d, %d, %v", c.id, s, r, ok)
		}
		if s, r, lo, hi, ok := shuffle.ParseRangedMergedBlockID(c.id); ok != c.ranged || ok && string(shuffle.RangedMergedBlockID(s, r, lo, hi)) != c.id {
			t.Errorf("ParseRangedMergedBlockID(%q) = %d, %d, %d, %d, %v", c.id, s, r, lo, hi, ok)
		}
	}
}

// FuzzParseBlockID feeds arbitrary strings to the three block-id parsers. An
// id a parser accepts must be exactly what its formatter writes for the
// numbers it read (so no two spellings name one block), and a ranged id's
// range must be non-empty.
func FuzzParseBlockID(f *testing.F) {
	for _, c := range blockIDCases {
		f.Add(c.id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if s, m, r, ok := storage.ParseShuffleBlockID(id); ok && string(storage.ShuffleBlockID(s, m, r)) != id {
			t.Fatalf("ParseShuffleBlockID(%q) = %d, %d, %d", id, s, m, r)
		}
		if s, r, ok := shuffle.ParseMergedBlockID(id); ok && string(shuffle.MergedBlockID(s, r)) != id {
			t.Fatalf("ParseMergedBlockID(%q) = %d, %d", id, s, r)
		}
		if s, r, lo, hi, ok := shuffle.ParseRangedMergedBlockID(id); ok && (string(shuffle.RangedMergedBlockID(s, r, lo, hi)) != id || lo < 0 || lo >= hi) {
			t.Fatalf("ParseRangedMergedBlockID(%q) = %d, %d, %d, %d", id, s, r, lo, hi)
		}
	})
}

// runOf lays blocks back to back, the way the service builds a merged run,
// and returns the run with the sizes and sums a reader expects of it.
func runOf(blocks ...[]byte) (run []byte, sizes []int64, sums []uint32) {
	for _, b := range blocks {
		run = append(run, b...)
		sizes = append(sizes, int64(len(b)))
		sums = append(sums, shuffle.Checksum(b))
	}
	return run, sizes, sums
}

// splitBlocks are the blocks TestMergedRunRoundTrip and
// TestDecodeMergedRunRejects lay into a run: an empty one between, and one
// large enough to span several fetch chunks.
func splitBlocks() [][]byte {
	big := make([]byte, 100<<10)
	for i := range big {
		big[i] = byte(i * 13)
	}
	return [][]byte{[]byte("alpha"), {}, big, []byte("z")}
}

// TestMergedRunRoundTrip: blocks laid back to back split into exactly those
// blocks, each a cap-limited window of the run rather than a copy.
func TestMergedRunRoundTrip(t *testing.T) {
	blocks := splitBlocks()
	run, sizes, sums := runOf(blocks...)
	pieces, bad, ok := shuffle.SplitMergedRun(run, sizes, sums)
	if !ok || bad != -1 || len(pieces) != len(blocks) {
		t.Fatalf("split: %d pieces, bad %d, ok %v", len(pieces), bad, ok)
	}
	for i, p := range pieces {
		if !bytes.Equal(p, blocks[i]) || cap(p) != len(p) {
			t.Fatalf("piece %d: %d bytes, capacity %d, want block %d exactly", i, len(p), cap(p), i)
		}
	}
	if &pieces[0][0] != &run[0] {
		t.Fatal("pieces are copies, not windows onto the run")
	}
	if pieces, bad, ok := shuffle.SplitMergedRun(nil, nil, nil); !ok || bad != -1 || len(pieces) != 0 {
		t.Fatalf("empty run of no blocks: %d pieces, bad %d, ok %v", len(pieces), bad, ok)
	}
}

// TestDecodeMergedRunRejects: a run of any length but the sum of the sizes
// is a miss, and a run of the right length with a flipped bit names the
// piece that holds it.
func TestDecodeMergedRunRejects(t *testing.T) {
	blocks := splitBlocks()
	run, sizes, sums := runOf(blocks...)

	// Any other length is a miss: a block the reader does not expect, or
	// one it lacks.
	for name, r := range map[string][]byte{
		"extra block":   append(append([]byte(nil), run...), 'x'),
		"missing block": run[:len(run)-1],
		"empty run":     nil,
	} {
		if pieces, bad, ok := shuffle.SplitMergedRun(r, sizes, sums); ok || pieces != nil || bad != -1 {
			t.Errorf("%s: %d pieces, bad %d, ok %v; want a miss", name, len(pieces), bad, ok)
		}
	}
	if _, _, ok := shuffle.SplitMergedRun([]byte("ab"), []int64{3, -1}, []uint32{0, 0}); ok {
		t.Error("negative size accepted")
	}
	if _, _, ok := shuffle.SplitMergedRun(run, sizes, sums[1:]); ok {
		t.Error("sizes and sums of different lengths accepted")
	}

	// A flipped bit keeps the length: the run splits, and the first piece
	// that does not match its sum is named.
	flipped := append([]byte(nil), run...)
	flipped[len(blocks[0])+100] ^= 0x10
	if _, bad, ok := shuffle.SplitMergedRun(flipped, sizes, sums); !ok || bad != 2 {
		t.Fatalf("flipped run: bad %d, ok %v; want piece 2", bad, ok)
	}
}

// FuzzDecodeMergedRun feeds arbitrary runs and layouts to
// SplitMergedRun, which is how a reader decodes a merged run. layout gives
// each expected block three bytes: a big-endian int16 size, then a byte
// that is 0 for the true CRC32C of the block's window of run (when the
// window lies inside run) or else names an arbitrary sum. The splitter must
// never panic, and it must accept a run exactly when its length is the sum
// of the sizes, none negative, and name as bad exactly the first piece that
// does not match its sum.
func FuzzDecodeMergedRun(f *testing.F) {
	f.Add([]byte("alphaz"), []byte{0, 5, 0, 0, 1, 0})
	f.Add([]byte("alphaz"), []byte{0, 5, 0, 0, 1, 7})
	f.Add([]byte("alpha"), []byte{0, 5, 0, 0, 1, 0})
	f.Add([]byte("alphaz!"), []byte{0, 5, 0, 0, 1, 0})
	f.Add([]byte("ab"), []byte{0, 3, 0, 0xff, 0xff, 0})
	f.Add([]byte{}, []byte{})
	// Every single-bit flip of a valid input, run and layout alike: a flip
	// in a size shifts the cut or makes a miss, one in a sum byte a
	// mismatch.
	run, sizes, _ := runOf([]byte("block-a"), nil, []byte("each single-bit flip of this input is a seed of its own"))
	var layout []byte
	for _, n := range sizes {
		layout = append(layout, byte(n>>8), byte(n), 0)
	}
	valid := append(append([]byte(nil), run...), layout...)
	for bit := 0; bit < len(valid)*8; bit++ {
		cp := append([]byte(nil), valid...)
		cp[bit/8] ^= 1 << (bit % 8)
		f.Add(cp[:len(run)], cp[len(run):])
	}
	f.Fuzz(func(t *testing.T, run, layout []byte) {
		n := len(layout) / 3
		sizes := make([]int64, n)
		sums := make([]uint32, n)
		var total int64
		negative := false
		for i := range sizes {
			sizes[i] = int64(int16(binary.BigEndian.Uint16(layout[3*i:])))
			negative = negative || sizes[i] < 0
			sums[i] = uint32(layout[3*i+2]) * 2654435761
			if lo := total; layout[3*i+2] == 0 && lo >= 0 && sizes[i] >= 0 && lo+sizes[i] <= int64(len(run)) {
				sums[i] = shuffle.Checksum(run[lo : lo+sizes[i]])
			}
			total += sizes[i]
		}
		pieces, bad, ok := shuffle.SplitMergedRun(run, sizes, sums)
		if want := !negative && total == int64(len(run)); ok != want {
			t.Fatalf("%d-byte run, sizes %v: ok %v, want %v", len(run), sizes, ok, want)
		}
		if !ok {
			if pieces != nil || bad != -1 {
				t.Fatalf("a miss returned %d pieces, bad %d", len(pieces), bad)
			}
			return
		}
		off := int64(0)
		for i, size := range sizes {
			window := run[off : off+size]
			off += size
			match := shuffle.Checksum(window) == sums[i]
			if !match {
				if bad != i {
					t.Fatalf("piece %d does not match its sum, bad %d", i, bad)
				}
				return
			}
			if bad == i || !bytes.Equal(pieces[i], window) || cap(pieces[i]) != len(pieces[i]) {
				t.Fatalf("piece %d: %d bytes (capacity %d), bad %d; want its %d-byte window", i, len(pieces[i]), cap(pieces[i]), bad, size)
			}
		}
		if bad != -1 {
			t.Fatalf("every piece matches its sum, bad %d", bad)
		}
	})
}
