package bytebuf

import (
	"bytes"
	"testing"
)

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// Consecutive windows of one buffer are adopted: no copy, no allocation,
// and no capacity left over to append into the served block's neighbours.
func TestReassemblyAdoptsConsecutiveWindows(t *testing.T) {
	served := pattern(300)
	block := served[:256] // the served block sits inside a larger buffer
	var out []byte
	allocs := testing.AllocsPerRun(10, func() {
		var r Reassembly
		for off := 0; off < len(block); off += 100 {
			end := min(off+100, len(block))
			r.Add(block[off:end], uint64(len(block)))
		}
		out = r.Bytes()
	})
	if allocs != 0 {
		t.Fatalf("adopting windows allocated %.0f times", allocs)
	}
	if len(out) != len(block) || &out[0] != &block[0] {
		t.Fatalf("result is not the served block: len %d, aliases %v", len(out), &out[0] == &block[0])
	}
	if cap(out) != len(out) {
		t.Fatalf("capacity %d reaches past the %d-byte block", cap(out), len(out))
	}
	if out = append(out, 0xFF); served[256] == 0xFF {
		t.Fatal("append wrote into the sender's buffer")
	}
}

// A chunk that is not the next window (a fault plane's copy) moves the
// block into its own exact-size buffer; the served block is not written,
// although the adopted first window had room behind it.
func TestReassemblyCopiesAroundAForeignChunk(t *testing.T) {
	served := pattern(300)
	want := append([]byte(nil), served...)
	foreign := bytes.Repeat([]byte{0xEE}, 100)

	var r Reassembly
	r.Add(served[0:100], 300)
	r.Add(foreign, 300)         // replaces served[100:200] in flight
	r.Add(served[200:300], 300) // adjacent to nothing the block owns now
	out := r.Bytes()

	if !bytes.Equal(served, want) {
		t.Fatal("reassembly wrote into the served block")
	}
	exp := append(append(append([]byte(nil), want[:100]...), foreign...), want[200:]...)
	if !bytes.Equal(out, exp) {
		t.Fatal("reassembled bytes differ from the chunks in order")
	}
	if &out[0] == &served[0] || cap(out) != 300 {
		t.Fatalf("want a private 300-byte buffer, got aliasing=%v cap=%d", &out[0] == &served[0], cap(out))
	}
}

func TestReassemblyEmptyBlock(t *testing.T) {
	var r Reassembly
	r.Add(nil, 0)
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty block has %d bytes", len(got))
	}
}
