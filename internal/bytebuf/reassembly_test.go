package bytebuf

import (
	"bytes"
	"errors"
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
			r.Add(block[off:end])
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
// block into a buffer of its own; the served block is not written,
// although the adopted first window had room behind it.
func TestReassemblyCopiesAroundAForeignChunk(t *testing.T) {
	served := pattern(300)
	want := append([]byte(nil), served...)
	foreign := bytes.Repeat([]byte{0xEE}, 100)

	var r Reassembly
	r.Add(served[0:100])
	r.Add(foreign)         // replaces served[100:200] in flight
	r.Add(served[200:300]) // adjacent to nothing the block owns now
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

// A block's announced total is wire data and sizes no buffer: a first chunk
// that claims a terabyte block, followed by one chunk that is not its next
// window, costs a buffer of the two chunks' bytes.
func TestReassemblyIgnoresAnnouncedTotal(t *testing.T) {
	const total = 1 << 40
	first, second := pattern(100), pattern(50)
	var r Reassembly
	if done, err := r.Fold(0, total, first); done || err != nil {
		t.Fatalf("first chunk: done=%v err=%v", done, err)
	}
	if done, err := r.Fold(100, total, second); done || err != nil {
		t.Fatalf("second chunk: done=%v err=%v", done, err)
	}
	if !r.owned || cap(r.data) > 150 {
		t.Fatalf("copied into a buffer of cap %d (owned=%v), want at most the 150 bytes folded", cap(r.data), r.owned)
	}
	if got := r.Bytes(); !bytes.Equal(got, append(append([]byte(nil), first...), second...)) {
		t.Fatal("folded bytes differ from the chunks in order")
	}
}

func TestReassemblyEmptyBlock(t *testing.T) {
	var r Reassembly
	r.Add(nil)
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty block has %d bytes", len(got))
	}
}

// step is one chunk handed to Fold: bytes [lo, hi) of the served block,
// announced at offset off of a total-byte block, as a window of the served
// buffer or (copied) as a private copy of it.
type step struct {
	off, total uint64
	lo, hi     int
	copied     bool
}

// TestReassemblyFold walks the chunk rule case by case: what fails a block,
// what is dropped without a trace, and what completes it, adopted or copied.
func TestReassemblyFold(t *testing.T) {
	const n = 300
	cases := []struct {
		name    string
		steps   []step
		done    bool
		err     error
		got     int  // bytes folded when the last step returns
		aliases bool // the result is the served block's memory
	}{
		{name: "windows are adopted", done: true, got: n, aliases: true,
			steps: []step{{0, n, 0, 100, false}, {100, n, 100, 200, false}, {200, n, 200, 300, false}}},
		{name: "a copied chunk moves the block", done: true, got: n,
			steps: []step{{0, n, 0, 100, false}, {100, n, 100, 200, true}, {200, n, 200, 300, false}}},
		{name: "one chunk is the block", done: true, got: n, aliases: true,
			steps: []step{{0, n, 0, n, false}}},
		{name: "zero-length block", done: true,
			steps: []step{{0, 0, 0, 0, false}}},
		{name: "overrun of the announced total", err: ErrMalformedChunk, got: 100, aliases: true,
			steps: []step{{0, n, 0, 100, false}, {100, n, 100, n + 16, false}}},
		{name: "offset past the total", err: ErrMalformedChunk,
			steps: []step{{1 << 63, n, 0, 100, false}}},
		{name: "offset at the total with a body", err: ErrMalformedChunk,
			steps: []step{{n, n, 0, 1, false}}},
		{name: "total differs from the first chunk's", err: ErrMalformedChunk, got: 100, aliases: true,
			steps: []step{{0, n, 0, 100, false}, {100, 150, 100, 150, false}}},
		{name: "total differs after an empty first chunk", err: ErrMalformedChunk,
			steps: []step{{0, n, 0, 0, false}, {0, 100, 0, 100, false}}},
		{name: "replay is dropped", got: 200, aliases: true,
			steps: []step{{0, n, 0, 100, false}, {100, n, 100, 200, false}, {100, n, 100, 200, false}}},
		{name: "gap is dropped", got: 100, aliases: true,
			steps: []step{{0, n, 0, 100, false}, {200, n, 200, 300, false}}},
		{name: "replay then the rest completes", done: true, got: n, aliases: true,
			steps: []step{{0, n, 0, 200, false}, {0, n, 0, 100, true}, {200, n, 200, 300, false}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			served := pattern(n + 16)
			want := bytes.Clone(served)
			var r Reassembly
			var done bool
			var err error
			for _, s := range c.steps {
				chunk := served[s.lo:s.hi]
				if s.copied {
					chunk = bytes.Clone(chunk)
				}
				before := len(r.Bytes())
				if done, err = r.Fold(s.off, s.total, chunk); err != nil {
					if len(r.Bytes()) != before {
						t.Fatalf("a rejected chunk changed the block: %d -> %d bytes", before, len(r.Bytes()))
					}
					break
				}
			}
			if done != c.done || !errors.Is(err, c.err) {
				t.Fatalf("Fold = (%v, %v), want (%v, %v)", done, err, c.done, c.err)
			}
			got := r.Bytes()
			if len(got) != c.got || !bytes.Equal(got, want[:c.got]) {
				t.Fatalf("folded %d bytes, want the served block's first %d", len(got), c.got)
			}
			if cap(got) != len(got) {
				t.Fatalf("capacity %d past the %d folded bytes", cap(got), len(got))
			}
			if len(got) > 0 && (&got[0] == &served[0]) != c.aliases {
				t.Fatalf("aliases the served block: %v, want %v", &got[0] == &served[0], c.aliases)
			}
			if !bytes.Equal(served, want) {
				t.Fatal("folding wrote into the served block")
			}
		})
	}
}

// FuzzChunkFold carves a body with Carve and folds the windows back with
// Fold, replaying earlier windows where the script says, as a duplicated
// delivery would. Whatever the length (zero included), span and replays, the
// body is max(1, ⌈len/span⌉) windows (one for a span below one), each starts
// where the last ended, and the fold completes on the last one with the body
// itself, adopted without a copy; a replay changes nothing.
func FuzzChunkFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, size, span uint16, replays []byte) {
		n, sp := int(size%4096), int(span%1024)
		body := pattern(n)
		want := 1
		if sp > 0 && n > sp {
			want = (n + sp - 1) / sp
		}
		count, _, _ := Carve(n, sp, 0)
		if count != want {
			t.Fatalf("%d bytes at span %d carve into %d windows, want %d", n, sp, count, want)
		}
		var r Reassembly
		next := 0 // where window i must start
		for i := 0; i < count; i++ {
			c, lo, hi := Carve(n, sp, i)
			if c != count || lo != next || hi < lo || hi > n || (sp > 0 && hi-lo > sp) || (hi == lo && n > 0) {
				t.Fatalf("window %d of %d (count %d) is [%d, %d) of %d bytes at span %d, want it to start at %d",
					i, count, c, lo, hi, n, sp, next)
			}
			next = hi
			done, err := r.Fold(uint64(lo), uint64(n), body[lo:hi])
			if err != nil || done != (i == count-1) {
				t.Fatalf("window %d of %d: Fold = (%v, %v)", i, count, done, err)
			}
			if done || len(replays) == 0 || replays[i%len(replays)]&1 == 0 {
				continue
			}
			j := int(replays[i%len(replays)]>>1) % (i + 1)
			_, jlo, jhi := Carve(n, sp, j)
			if d, err := r.Fold(uint64(jlo), uint64(n), body[jlo:jhi]); d || err != nil || len(r.Bytes()) != hi {
				t.Fatalf("replay of window %d after %d: Fold = (%v, %v), %d bytes folded", j, i, d, err, len(r.Bytes()))
			}
		}
		got := r.Bytes()
		if next != n || !bytes.Equal(got, body) {
			t.Fatalf("folded %d bytes of %d, windows end at %d", len(got), n, next)
		}
		if n > 0 && &got[0] != &body[0] {
			t.Fatal("the fold copied the windows instead of adopting them")
		}
	})
}

// FuzzReassembly folds a random chunk sequence cut from a served block: next
// windows, copies of them, replays and gaps, and chunks announcing another
// total. Whatever the sequence, Fold must not panic, must never write the
// served memory, must leave a rejected or dropped chunk without a trace, and
// a completed block must be the served bytes its first chunk announced, with
// no capacity past them.
func FuzzReassembly(f *testing.F) {
	f.Add(uint16(300), []byte{0, 100, 0, 0, 100, 0, 0, 100, 0})
	f.Add(uint16(300), []byte{1, 150, 0, 2, 50, 0, 0, 150, 0})
	f.Add(uint16(0), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, size uint16, script []byte) {
		n := int(size % 4096)
		backing := pattern(n + 64) // the served block sits inside a larger buffer
		orig := bytes.Clone(backing)
		served := backing[:n]
		var r Reassembly
		first := -1 // the total the first folded chunk announced
		for ; len(script) >= 3; script = script[3:] {
			op, a, b := script[0], int(script[1]), int(script[2])
			cur := len(r.Bytes())
			off, total := cur, uint64(n)
			switch op % 4 {
			case 2: // a replay or a gap
				off = (cur + a*7) % (n + 1)
			case 3: // a lie about the block's size
				total = uint64(max(0, n+b-128))
			}
			end := min(off+a*(1+b%32), n)
			chunk := served[off:end]
			if op%4 == 1 {
				chunk = bytes.Clone(chunk)
			}
			done, err := r.Fold(uint64(off), total, chunk)
			got := r.Bytes()
			if cap(got) != len(got) {
				t.Fatalf("capacity %d past %d bytes", cap(got), len(got))
			}
			if err != nil || (off != cur && !done) {
				if len(got) != cur {
					t.Fatalf("a rejected or dropped chunk changed the block: %d -> %d bytes", cur, len(got))
				}
				if err != nil {
					break
				}
				continue
			}
			if first < 0 {
				first = int(total)
			}
			if !bytes.Equal(got, served[:len(got)]) {
				t.Fatal("folded bytes differ from the served block")
			}
			if done {
				if len(got) != first {
					t.Fatalf("completed at %d bytes, first chunk announced %d", len(got), first)
				}
				break
			}
		}
		if !bytes.Equal(backing, orig) {
			t.Fatal("reassembly wrote into the served memory")
		}
	})
}
