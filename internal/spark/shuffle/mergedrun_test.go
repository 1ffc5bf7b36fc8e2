package shuffle_test

import (
	"reflect"
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

func TestMergedRunRoundTrip(t *testing.T) {
	entries := []shuffle.MergedEntry{
		{MapID: 0, Data: []byte("alpha")},
		{MapID: 2, Data: []byte{}},
		{MapID: 7, Data: make([]byte, 100<<10)},
	}
	for i := range entries[2].Data {
		entries[2].Data[i] = byte(i * 13)
	}
	got, err := shuffle.DecodeMergedRun(shuffle.EncodeMergedRun(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].MapID != entries[i].MapID {
			t.Fatalf("entry %d mapID = %d, want %d", i, got[i].MapID, entries[i].MapID)
		}
		if !reflect.DeepEqual(normEntryBytes(got[i].Data), normEntryBytes(entries[i].Data)) {
			t.Fatalf("entry %d data corrupted", i)
		}
	}
}

func TestDecodeMergedRunRejects(t *testing.T) {
	cases := map[string][]byte{
		"truncated count":      {0, 0},
		"hostile count":        {0xff, 0xff, 0xff, 0xff},
		"truncated entry":      {0, 0, 0, 1, 0, 0, 0, 5},
		"hostile entry length": {0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"trailing bytes":       append(shuffle.EncodeMergedRun([]shuffle.MergedEntry{{MapID: 1, Data: []byte("x")}}), 0xAA),
	}
	for name, data := range cases {
		if _, err := shuffle.DecodeMergedRun(data); err == nil {
			t.Errorf("%s: decode accepted %x", name, data)
		}
	}
	if entries, err := shuffle.DecodeMergedRun([]byte{0, 0, 0, 0}); err != nil || len(entries) != 0 {
		t.Fatalf("empty run: got %v, %v", entries, err)
	}
}

// FuzzDecodeMergedRun feeds arbitrary bytes through the push-merge run
// decoder. It must never panic or over-read; any accepted run must survive
// an encode/decode round trip unchanged — the property the service relies
// on when it caches an encoded run and reducers decode it remotely.
func FuzzDecodeMergedRun(f *testing.F) {
	f.Add(shuffle.EncodeMergedRun(nil))
	valid := shuffle.EncodeMergedRun([]shuffle.MergedEntry{
		{MapID: 0, Data: []byte("block-a")},
		{MapID: 3, Data: nil},
		{MapID: 5, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
	})
	f.Add(valid)
	f.Add(shuffle.EncodeMergedRun([]shuffle.MergedEntry{
		{MapID: 1, Sum: shuffle.Checksum([]byte("summed")), Data: []byte("summed")},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 5})
	// Every single-bit flip of a valid run: the corruption the fault plane
	// injects in flight. Decode must reject or round-trip each, and the
	// carried per-entry sums are what let the reader catch payload flips
	// that remain structurally valid.
	for bit := 0; bit < len(valid)*8; bit++ {
		cp := make([]byte, len(valid))
		copy(cp, valid)
		cp[bit/8] ^= 1 << (bit % 8)
		f.Add(cp)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := shuffle.DecodeMergedRun(data)
		if err != nil {
			return
		}
		re := shuffle.EncodeMergedRun(entries)
		again, err := shuffle.DecodeMergedRun(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v (input %x)", err, data)
		}
		if len(again) != len(entries) {
			t.Fatalf("round trip changed entry count: %d != %d", len(again), len(entries))
		}
		for i := range entries {
			if again[i].MapID != entries[i].MapID ||
				again[i].Sum != entries[i].Sum ||
				!reflect.DeepEqual(normEntryBytes(again[i].Data), normEntryBytes(entries[i].Data)) {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}

func normEntryBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}
