package netty

import (
	"encoding/binary"
	"fmt"

	"mpi4spark/internal/bytebuf"
)

// Frame is one wire frame in two parts: Head holds the framed header bytes
// and Body the payload that follows them, carried by reference and never
// copied into Head (Netty's CompositeByteBuf, Spark's MessageWithHeader).
// A frame with no body travels the pipeline as a plain *bytebuf.Buf.
//
// Body aliases the sender's slice all the way to the receiving handler:
// whoever writes a Frame must not modify Body afterwards.
type Frame struct {
	Head *bytebuf.Buf
	Body []byte
}

// Parts returns the head and body of a pipeline message that is a frame:
// a *bytebuf.Buf (no body) or a *Frame. The frame codec and the transports
// accept exactly these; anything else is a pipeline wired wrongly.
func Parts(msg any) (head *bytebuf.Buf, body []byte) {
	switch m := msg.(type) {
	case *bytebuf.Buf:
		return m, nil
	case *Frame:
		return m.Head, m.Body
	}
	panic(fmt.Sprintf("netty: a frame is a *bytebuf.Buf or a *Frame, got %T", msg))
}

// ownedFrame is a frame with its head buffer inside it, one object where a
// Frame and a Buf would be two: what WrapInbound builds around a received
// message with a body.
type ownedFrame struct {
	Frame
	head bytebuf.Buf
}

// inlineFrame is what the frame encoder emits: an ownedFrame with room for the
// framed head's bytes too, which every rpc header fits but that of a fetch
// request naming several blocks.
type inlineFrame struct {
	ownedFrame
	inline [64]byte
}

// FrameEncoder is an outbound handler that prepends a big-endian uint32
// length field to each frame, Netty's LengthFieldPrepender. The length
// covers head and body; only the head is rewritten, into a fresh frame the
// receiver may keep (frames are never pooled: receivers alias the head), so
// the writer can recycle its own head buffer as soon as Write returns.
// Framing costs no virtual time.
type FrameEncoder struct{}

// Write implements OutboundHandler.
func (e *FrameEncoder) Write(ctx *Context, msg any) {
	head, body := Parts(msg)
	n := head.ReadableBytes() + len(body)
	f := &inlineFrame{}
	framed := f.inline[:0]
	if size := 4 + head.ReadableBytes(); size > len(f.inline) {
		// Exact size: append's growth would round a 4 MiB head up a class.
		framed = make([]byte, 0, size)
	}
	framed = binary.BigEndian.AppendUint32(framed, uint32(n))
	f.head.SetBytes(append(framed, head.Readable()...))
	if body == nil {
		ctx.Write(&f.head)
		return
	}
	f.Head, f.Body = &f.head, body
	ctx.Write(&f.Frame)
}

// FrameDecoder is an inbound handler that validates and strips the uint32
// length field, Netty's LengthFieldBasedFrameDecoder. Because the fabric
// preserves message boundaries, each inbound message holds exactly one
// frame; a length mismatch indicates corruption and the frame is dropped
// (reported through OnError if set). What it forwards has the shape of
// what arrived: a *bytebuf.Buf, or a *Frame whose body was never touched.
type FrameDecoder struct {
	OnError func(error)
}

// ChannelRead implements InboundHandler.
func (d *FrameDecoder) ChannelRead(ctx *Context, msg any) {
	head, body := Parts(msg)
	n, err := head.ReadUint32()
	if err != nil {
		d.fail(fmt.Errorf("netty: truncated frame header: %w", err))
		return
	}
	if got := head.ReadableBytes() + len(body); int(n) != got {
		d.fail(fmt.Errorf("netty: frame length %d does not match %d readable bytes", n, got))
		return
	}
	ctx.FireChannelRead(msg)
}

func (d *FrameDecoder) fail(err error) {
	if d.OnError != nil {
		d.OnError(err)
	}
}
