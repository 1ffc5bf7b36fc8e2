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
// A frame is a view for one traversal: the frames a pipeline makes live in
// the event's Context and die with it (see Context), and what crosses the
// wire, and may be kept, is the bytes. Body aliases the sender's slice all
// the way to the receiving handler: whoever writes a Frame must not modify
// Body afterwards.
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

// FrameEncoder is an outbound handler that prepends a big-endian uint32
// length field to each frame, Netty's LengthFieldPrepender. The length
// covers head and body; only the head is rewritten, into fresh bytes of
// exactly its framed size (the one allocation a frame costs, and the bytes a
// receiver may keep: they are never reused), so the writer can recycle its
// own head buffer as soon as Write returns. The frame around them lives in
// the context. Framing costs no virtual time.
type FrameEncoder struct{}

// Write implements OutboundHandler.
func (e *FrameEncoder) Write(ctx *Context, msg any) {
	head, body := Parts(msg)
	framed := make([]byte, 4+head.ReadableBytes())
	binary.BigEndian.PutUint32(framed, uint32(head.ReadableBytes()+len(body)))
	copy(framed[4:], head.Readable())
	ctx.Write(ctx.frameOf(framed, body))
}

// FrameDecoder is an inbound handler that validates and strips the uint32
// length field, Netty's LengthFieldBasedFrameDecoder. Because the fabric
// preserves message boundaries, each inbound message holds exactly one
// frame; a length mismatch indicates corruption and the frame is dropped
// (reported through OnError if set). What it forwards is the frame that
// arrived, past its length field: a *bytebuf.Buf, or a *Frame whose body
// was never touched.
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
