// Package bytebuf implements a Netty-style byte buffer: a growable byte
// container with independent reader and writer indices, big-endian
// primitive accessors, slicing, and a size-classed pool.
//
// In the paper, PooledDirectByteBufs carry Spark's framed messages through
// the Netty pipeline, and MPI rank/communicator-type metadata is exchanged
// through them during connection establishment. The same type plays that
// role here.
package bytebuf

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Buf is a byte buffer with separate reader and writer indices, in the style
// of Netty's ByteBuf:
//
//	+-------------------+------------------+------------------+
//	| discardable bytes |  readable bytes  |  writable bytes  |
//	+-------------------+------------------+------------------+
//	0      <=      readerIndex   <=   writerIndex    <=    capacity
//
// The zero value is an empty buffer ready for use.
type Buf struct {
	data []byte
	r    int
	w    int
	pool *Pool // owner while checked out of a pool; nil when unpooled or released
	// recycled marks a buffer that has been through a pool at least once,
	// so Get can tell a reuse from a fresh allocation.
	recycled bool
}

// New returns an unpooled buffer with the given initial capacity.
func New(capacity int) *Buf {
	if capacity < 0 {
		capacity = 0
	}
	return &Buf{data: make([]byte, capacity)}
}

// Wrap returns a buffer whose readable bytes are exactly b. The buffer does
// not copy b; the caller must not mutate it while the buffer is in use.
func Wrap(b []byte) *Buf {
	return &Buf{data: b, w: len(b)}
}

// SetBytes makes b what Wrap(p) returns, in place: a buffer whose readable
// bytes are exactly p, uncopied. It is for a Buf that lives inside another
// object or is re-pointed at one input after another; b must not be checked
// out of a pool.
func (b *Buf) SetBytes(p []byte) { *b = Buf{data: p, w: len(p)} }

// ReadableBytes returns the number of unread bytes.
func (b *Buf) ReadableBytes() int { return b.w - b.r }

// WritableBytes returns the remaining capacity before the buffer must grow.
func (b *Buf) WritableBytes() int { return len(b.data) - b.w }

// ReaderIndex returns the current reader index.
func (b *Buf) ReaderIndex() int { return b.r }

// WriterIndex returns the current writer index.
func (b *Buf) WriterIndex() int { return b.w }

// Reset empties the buffer, retaining capacity.
func (b *Buf) Reset() { b.r, b.w = 0, 0 }

// ensure grows the backing array so at least n more bytes can be written.
func (b *Buf) ensure(n int) {
	if b.WritableBytes() >= n {
		return
	}
	need := b.w + n
	newCap := len(b.data)*2 + 16
	if newCap < need {
		newCap = need
	}
	nd := make([]byte, newCap)
	copy(nd, b.data[:b.w])
	b.data = nd
}

// WriteBytes appends p to the buffer.
func (b *Buf) WriteBytes(p []byte) {
	b.ensure(len(p))
	copy(b.data[b.w:], p)
	b.w += len(p)
}

// WriteByte appends a single byte. It implements io.ByteWriter (error is
// always nil).
func (b *Buf) WriteByte(c byte) error {
	b.ensure(1)
	b.data[b.w] = c
	b.w++
	return nil
}

// WriteUint32 appends v big-endian.
func (b *Buf) WriteUint32(v uint32) {
	b.ensure(4)
	binary.BigEndian.PutUint32(b.data[b.w:], v)
	b.w += 4
}

// WriteUint64 appends v big-endian.
func (b *Buf) WriteUint64(v uint64) {
	b.ensure(8)
	binary.BigEndian.PutUint64(b.data[b.w:], v)
	b.w += 8
}

// WriteInt64 appends v big-endian.
func (b *Buf) WriteInt64(v int64) { b.WriteUint64(uint64(v)) }

// WriteString appends s length-prefixed with a uint32, matching the framing
// Spark uses for identifiers.
func (b *Buf) WriteString(s string) {
	b.WriteUint32(uint32(len(s)))
	b.WriteBytes([]byte(s))
}

// ReadSlice consumes the next n readable bytes and returns them without
// copying. The slice aliases the buffer and is valid until the buffer is
// reset, released, or grown.
func (b *Buf) ReadSlice(n int) ([]byte, error) {
	if n < 0 || b.ReadableBytes() < n {
		return nil, fmt.Errorf("bytebuf: read %d bytes, only %d readable", n, b.ReadableBytes())
	}
	out := b.data[b.r : b.r+n : b.r+n]
	b.r += n
	return out, nil
}

// ReadByte consumes one byte. It implements io.ByteReader.
func (b *Buf) ReadByte() (byte, error) {
	if b.ReadableBytes() < 1 {
		return 0, io.EOF
	}
	c := b.data[b.r]
	b.r++
	return c, nil
}

// ReadUint32 consumes a big-endian uint32.
func (b *Buf) ReadUint32() (uint32, error) {
	p, err := b.ReadSlice(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(p), nil
}

// ReadUint64 consumes a big-endian uint64.
func (b *Buf) ReadUint64() (uint64, error) {
	p, err := b.ReadSlice(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(p), nil
}

// ReadInt64 consumes a big-endian int64.
func (b *Buf) ReadInt64() (int64, error) {
	v, err := b.ReadUint64()
	return int64(v), err
}

// ReadString consumes a uint32-length-prefixed string.
func (b *Buf) ReadString() (string, error) {
	n, err := b.ReadUint32()
	if err != nil {
		return "", err
	}
	p, err := b.ReadSlice(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// PeekUint32 reads a big-endian uint32 at the reader index without
// consuming it. Frame decoders use it to inspect length fields.
func (b *Buf) PeekUint32() (uint32, error) {
	if b.ReadableBytes() < 4 {
		return 0, io.EOF
	}
	return binary.BigEndian.Uint32(b.data[b.r:]), nil
}

// Readable returns the unread bytes without consuming them. The slice
// aliases the buffer.
func (b *Buf) Readable() []byte { return b.data[b.r:b.w] }

// Bytes copies out the unread bytes.
func (b *Buf) Bytes() []byte {
	// make(len(src)) then copy(out, src): the form the compiler allocates
	// without clearing first.
	src := b.data[b.r:b.w]
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// Skip discards n readable bytes.
func (b *Buf) Skip(n int) error {
	if n < 0 || b.ReadableBytes() < n {
		return fmt.Errorf("bytebuf: skip %d, only %d readable", n, b.ReadableBytes())
	}
	b.r += n
	return nil
}

// Write implements io.Writer.
func (b *Buf) Write(p []byte) (int, error) {
	b.WriteBytes(p)
	return len(p), nil
}

// Read implements io.Reader.
func (b *Buf) Read(p []byte) (int, error) {
	if b.ReadableBytes() == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.r:b.w])
	b.r += n
	return n, nil
}

// String summarizes the buffer state for debugging.
func (b *Buf) String() string {
	return fmt.Sprintf("Buf(r=%d w=%d cap=%d)", b.r, b.w, len(b.data))
}
