package netty

import (
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

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

// WriteMsg ships the bytes of one frame by reference, head and body as one
// message: they must not change once written.
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
