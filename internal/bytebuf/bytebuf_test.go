package bytebuf

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var b Buf
	b.WriteBytes([]byte("abc"))
	if got := b.ReadableBytes(); got != 3 {
		t.Fatalf("ReadableBytes = %d", got)
	}
	p, err := b.ReadSlice(3)
	if err != nil || string(p) != "abc" {
		t.Fatalf("ReadSlice = %q, %v", p, err)
	}
}

func TestWrapDoesNotCopy(t *testing.T) {
	src := []byte{1, 2, 3}
	b := Wrap(src)
	if b.ReadableBytes() != 3 {
		t.Fatalf("ReadableBytes = %d", b.ReadableBytes())
	}
	got := b.Readable()
	if &got[0] != &src[0] {
		t.Fatal("Wrap copied the slice")
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	b := New(0)
	b.WriteByte(0xAB)
	b.WriteUint32(0xDEADBEEF)
	b.WriteUint64(0x0123456789ABCDEF)
	b.WriteInt64(-42)
	b.WriteString("shuffle_0_1_2")

	if v, _ := b.ReadByte(); v != 0xAB {
		t.Fatalf("byte = %x", v)
	}
	if v, _ := b.ReadUint32(); v != 0xDEADBEEF {
		t.Fatalf("uint32 = %x", v)
	}
	if v, _ := b.ReadUint64(); v != 0x0123456789ABCDEF {
		t.Fatalf("uint64 = %x", v)
	}
	if v, _ := b.ReadInt64(); v != -42 {
		t.Fatalf("int64 = %d", v)
	}
	if s, _ := b.ReadString(); s != "shuffle_0_1_2" {
		t.Fatalf("string = %q", s)
	}
	if b.ReadableBytes() != 0 {
		t.Fatalf("leftover bytes: %d", b.ReadableBytes())
	}
}

func TestBigEndianLayout(t *testing.T) {
	b := New(0)
	b.WriteUint32(0x01020304)
	if got := b.Bytes(); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("layout = %v", got)
	}
}

func TestShortReads(t *testing.T) {
	b := New(0)
	b.WriteByte(1)
	if _, err := b.ReadUint32(); err == nil {
		t.Fatal("ReadUint32 on 1 byte succeeded")
	}
	if _, err := b.ReadSlice(2); err == nil {
		t.Fatal("ReadSlice(2) on 1 byte succeeded")
	}
	b.ReadByte()
	if _, err := b.ReadByte(); err != io.EOF {
		t.Fatalf("ReadByte on empty = %v, want EOF", err)
	}
	if _, err := b.PeekUint32(); err != io.EOF {
		t.Fatalf("PeekUint32 on empty = %v, want EOF", err)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	b := New(0)
	b.WriteUint32(7)
	v1, err := b.PeekUint32()
	if err != nil || v1 != 7 {
		t.Fatalf("Peek = %d, %v", v1, err)
	}
	v2, err := b.ReadUint32()
	if err != nil || v2 != 7 {
		t.Fatalf("Read after Peek = %d, %v", v2, err)
	}
}

func TestSkipAndIndices(t *testing.T) {
	b := New(0)
	b.WriteBytes([]byte("0123456789"))
	if err := b.Skip(4); err != nil {
		t.Fatal(err)
	}
	if b.ReaderIndex() != 4 || b.WriterIndex() != 10 {
		t.Fatalf("indices = %d/%d", b.ReaderIndex(), b.WriterIndex())
	}
	if got := string(b.Bytes()); got != "456789" {
		t.Fatalf("after skip: %q", got)
	}
	if err := b.Skip(11); err == nil {
		t.Fatal("over-skip succeeded")
	}
}

func TestGrowth(t *testing.T) {
	b := New(4)
	payload := bytes.Repeat([]byte{7}, 10000)
	b.WriteBytes(payload)
	if got := b.Bytes(); !bytes.Equal(got, payload) {
		t.Fatal("growth corrupted data")
	}
	if len(b.data) < 10000 {
		t.Fatalf("capacity = %d", len(b.data))
	}
}

func TestReaderWriterInterfaces(t *testing.T) {
	b := New(0)
	if _, err := io.WriteString(b, "hello "); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(b, "world"); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(b)
	if err != nil || string(out) != "hello world" {
		t.Fatalf("ReadAll = %q, %v", out, err)
	}
}

func TestReadSliceAliases(t *testing.T) {
	b := New(0)
	b.WriteBytes([]byte{9, 9})
	s, err := b.ReadSlice(2)
	if err != nil {
		t.Fatal(err)
	}
	if &s[0] != &b.data[0] {
		t.Fatal("ReadSlice copied")
	}
}

// Property: any sequence of byte-slice writes reads back identically.
func TestWriteReadProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		b := New(0)
		var want []byte
		for _, c := range chunks {
			b.WriteBytes(c)
			want = append(want, c...)
		}
		return bytes.Equal(b.Bytes(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string round trip is identity.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		b := New(0)
		b.WriteString(s)
		got, err := b.ReadString()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(nil)
	b := p.Get(1000)
	if len(b.data) < 1000 {
		t.Fatalf("capacity = %d", len(b.data))
	}
	b.WriteBytes([]byte("junk"))
	p.Release(b)
	b2 := p.Get(1000)
	if b2.ReadableBytes() != 0 {
		t.Fatal("pooled buffer not reset")
	}
	gets, _ := p.Stats()
	if gets != 2 {
		t.Fatalf("gets = %d", gets)
	}
}

func TestPoolOversized(t *testing.T) {
	p := NewPool(nil)
	huge := 64 << 20
	b := p.Get(huge)
	if len(b.data) < huge {
		t.Fatalf("capacity = %d", len(b.data))
	}
	p.Release(b) // must not panic or pollute classes
	small := p.Get(16)
	if len(small.data) > 256 {
		t.Fatalf("small get returned capacity %d", len(small.data))
	}
}

func TestPoolReleaseForeignBuffer(t *testing.T) {
	p := NewPool(nil)
	b := New(64) // unpooled
	p.Release(b) // no-op
	p.Release(nil)
}

func TestPoolGrownBufferRefiled(t *testing.T) {
	p := NewPool(nil)
	b := p.Get(200) // class 256
	b.WriteBytes(make([]byte, 5000))
	p.Release(b)
	// A later small Get must still have at least its requested capacity.
	c := p.Get(200)
	if len(c.data) < 200 {
		t.Fatalf("capacity lie: %d", len(c.data))
	}
}

func TestResetRetainsCapacity(t *testing.T) {
	b := New(0)
	b.WriteBytes(make([]byte, 512))
	capBefore := len(b.data)
	b.Reset()
	if len(b.data) != capBefore || b.ReadableBytes() != 0 {
		t.Fatalf("Reset: cap=%d readable=%d", len(b.data), b.ReadableBytes())
	}
}

// TestPoolReleaseIdempotent: a buffer released twice is filed once, so two
// later Gets never share a backing array.
func TestPoolReleaseIdempotent(t *testing.T) {
	p := NewPool(nil)
	b := p.Get(1000)
	b.Release()
	b.Release()
	p.Release(b)
	x, y := p.Get(1000), p.Get(1000)
	if x == y {
		t.Fatal("double release filed one buffer twice: two Gets returned it")
	}
	x.WriteBytes([]byte("x"))
	y.WriteBytes([]byte("y"))
	if &x.Readable()[0] == &y.Readable()[0] {
		t.Fatal("two live buffers share a backing array")
	}
	if gets, hits := p.Stats(); gets != 3 || hits > 1 {
		t.Fatalf("gets=%d hits=%d, want 3 gets and at most the one reuse", gets, hits)
	}
}

// TestPoolGrownBufferKeepsItsPromise: a buffer that grew only part of the
// way to the next class is not filed under it, where a Get would receive
// less capacity than it asked for.
func TestPoolGrownBufferKeepsItsPromise(t *testing.T) {
	p := NewPool(nil)
	b := p.Get(200)                  // class 256
	b.WriteBytes(make([]byte, 5000)) // grows past 4 KiB, short of 16 KiB
	p.Release(b)
	for _, n := range []int{200, 4 << 10, 16 << 10} {
		if c := p.Get(n); len(c.data) < n {
			t.Fatalf("Get(%d) returned capacity %d", n, len(c.data))
		}
	}
}

// TestPoolChurnEveryClass hammers every size class from several
// goroutines. Each stamps its buffer and checks the stamp before handing it
// back: a buffer handed to two owners at once fails the check (and trips
// the race detector).
func TestPoolChurnEveryClass(t *testing.T) {
	p := NewPool(nil)
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stamp := bytes.Repeat([]byte{byte(w + 1)}, 64)
			for r := 0; r < rounds; r++ {
				for _, class := range DefaultClasses {
					b := p.Get(class)
					if len(b.data) < class {
						t.Errorf("Get(%d) returned capacity %d", class, len(b.data))
						return
					}
					b.WriteBytes(stamp)
					runtime.Gosched()
					if !bytes.Equal(b.Readable(), stamp) {
						t.Errorf("worker %d: class %d buffer scribbled by another owner", w, class)
						return
					}
					b.Release()
				}
			}
		}(w)
	}
	wg.Wait()
}
