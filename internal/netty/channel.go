package netty

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// ChannelID uniquely identifies a channel, mirroring Netty's ChannelId
// abstraction. The paper maps these IDs to MPI ranks and communicator types
// during connection establishment.
type ChannelID string

var channelSeq atomic.Int64

func nextChannelID() ChannelID {
	return ChannelID(fmt.Sprintf("ch-%08x", channelSeq.Add(1)))
}

// Transport moves encoded messages between channel peers. The NIO transport
// uses the fabric's TCP path; the MPI transports in internal/core substitute
// MPI point-to-point communication.
type Transport interface {
	// WriteMsg ships an outbound message that has reached the pipeline
	// head: a *bytebuf.Buf or *Frame holding one frame (see Parts). The
	// frame lives in the write's Context and is valid only during the call;
	// a transport that ships or queues it keeps its bytes, which the writer
	// does not change. It returns the virtual time at which the caller's CPU
	// is free.
	WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp
	// Close tears the transport down.
	Close() error
}

// Channel is a nexus of a transport, a pipeline, and per-connection
// attributes. It corresponds to a Netty Channel wrapping a socket.
type Channel struct {
	id        ChannelID
	pipeline  *Pipeline
	transport Transport
	loop      *EventLoop
	conn      *fabric.Conn // underlying socket; nil for synthetic channels

	mu     sync.RWMutex
	attrs  map[string]any
	active atomic.Bool
	onceCl sync.Once
}

// NewChannel creates a channel with an empty pipeline and no transport.
// Bootstraps normally create channels; tests may use this directly.
func NewChannel() *Channel {
	ch := &Channel{id: nextChannelID(), attrs: make(map[string]any)}
	ch.pipeline = &Pipeline{channel: ch}
	return ch
}

// ID returns the channel's unique identifier.
func (ch *Channel) ID() ChannelID { return ch.id }

// Pipeline returns the channel's handler pipeline.
func (ch *Channel) Pipeline() *Pipeline { return ch.pipeline }

// Conn returns the underlying fabric connection, or nil if the channel is
// not socket-backed.
func (ch *Channel) Conn() *fabric.Conn { return ch.conn }

// SetTransport installs the channel's transport. It must be called before
// any write.
func (ch *Channel) SetTransport(t Transport) { ch.transport = t }

// SetAttr stores a per-channel attribute (e.g. the peer's MPI rank).
func (ch *Channel) SetAttr(key string, v any) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.attrs[key] = v
}

// Attr loads a per-channel attribute.
func (ch *Channel) Attr(key string) (any, bool) {
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	v, ok := ch.attrs[key]
	return v, ok
}

// Write sends msg through the outbound pipeline with the writer's virtual
// clock at vt; it returns the time the writer's CPU is free again.
func (ch *Channel) Write(msg any, vt vtime.Stamp) vtime.Stamp {
	return ch.pipeline.Write(msg, vt)
}

// Close deactivates the channel, closes the transport, and fires
// channelInactive exactly once.
func (ch *Channel) Close() {
	ch.onceCl.Do(func() {
		wasActive := ch.active.Swap(false)
		if ch.transport != nil {
			ch.transport.Close()
		}
		if ch.conn != nil {
			ch.conn.Close()
		}
		if ch.loop != nil {
			ch.loop.deregister(ch)
		}
		if wasActive {
			ch.pipeline.FireChannelInactive(0)
		}
	})
}

// markActive flips the channel to active and fires channelActive.
func (ch *Channel) markActive(vt vtime.Stamp) {
	if ch.active.CompareAndSwap(false, true) {
		ch.pipeline.FireChannelActive(vt)
	}
}
