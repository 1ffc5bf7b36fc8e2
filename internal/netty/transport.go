package netty

import (
	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// WrapInbound converts the two parts of a received wire message into the
// pipeline's inbound representation: a ByteBuf over head when there is no
// body, a Frame otherwise (one object, its head buffer inside it). Nothing
// is copied.
func WrapInbound(head, body []byte) any {
	if body == nil {
		return bytebuf.Wrap(head)
	}
	f := &ownedFrame{}
	f.head.SetBytes(head)
	f.Head, f.Body = &f.head, body
	return &f.Frame
}

// NIOTransport is the default transport: framed messages over the fabric's
// TCP path, the analogue of Netty's NIO socket transport used by Vanilla
// Spark.
type NIOTransport struct {
	conn *fabric.Conn
}

// NewNIOTransport wraps a fabric connection.
func NewNIOTransport(conn *fabric.Conn) *NIOTransport {
	return &NIOTransport{conn: conn}
}

// WriteMsg ships one frame by reference: the bytes of msg must not change
// once written.
func (t *NIOTransport) WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp {
	head, body := Parts(msg)
	free, err := t.conn.SendGather(head.Readable(), body, vt)
	if err != nil {
		return vt
	}
	return free
}

// Close closes the underlying connection.
func (t *NIOTransport) Close() error { return t.conn.Close() }
