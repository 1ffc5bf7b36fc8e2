package netty

import (
	"sync"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// Initializer configures a freshly created channel's pipeline, like Netty's
// ChannelInitializer.
type Initializer func(ch *Channel)

// TransportFactory builds a transport for a newly established connection.
// The default (nil) factory produces the NIO transport; internal/core
// supplies MPI-based factories.
type TransportFactory func(ch *Channel, conn *fabric.Conn) Transport

func defaultTransport(ch *Channel, conn *fabric.Conn) Transport {
	return NewNIOTransport(conn)
}

// Bootstrap connects client channels, mirroring Netty's Bootstrap.
type Bootstrap struct {
	Group       *EventLoopGroup
	Initializer Initializer
	Factory     TransportFactory
	Protocol    fabric.Protocol
}

// Connect dials addr from the given node with the dialer's virtual clock at
// vt. It returns the connected, registered, active channel and the virtual
// time at which the connection is usable.
func (b *Bootstrap) Connect(from *fabric.Node, addr fabric.Addr, vt vtime.Stamp) (*Channel, vtime.Stamp, error) {
	conn, ready, err := from.Dial(addr, b.Protocol, vt)
	if err != nil {
		return nil, vt, err
	}
	ch := newConnChannel(conn, b.Factory, b.Initializer)
	b.Group.Next().Register(ch, ready)
	return ch, ready, nil
}

// newConnChannel makes conn's channel: its transport from factory (NIO when
// nil), then its pipeline from init.
func newConnChannel(conn *fabric.Conn, factory TransportFactory, init Initializer) *Channel {
	ch := NewChannel()
	ch.conn = conn
	if factory == nil {
		factory = defaultTransport
	}
	ch.SetTransport(factory(ch, conn))
	if init != nil {
		init(ch)
	}
	return ch
}

// Server is a listening service that accepts channels.
type Server struct {
	listener *fabric.Listener
	boot     *ServerBootstrap

	mu       sync.Mutex
	accepted []*Channel
	closed   bool
	accept   vtime.Group // the accept loop's thread, joined by Close
}

// ServerBootstrap accepts server-side channels, mirroring Netty's
// ServerBootstrap with a boss/worker group split (the boss is the accept
// goroutine, the workers are the group's loops).
type ServerBootstrap struct {
	Group       *EventLoopGroup
	Initializer Initializer
	Factory     TransportFactory
}

// Listen binds the given node/port and starts accepting.
func (sb *ServerBootstrap) Listen(node *fabric.Node, port string) (*Server, error) {
	l, err := node.Listen(port)
	if err != nil {
		return nil, err
	}
	s := &Server{listener: l, boot: sb}
	s.accept.Go(s.acceptLoop)
	return s, nil
}

// Addr returns the server's listening address.
func (s *Server) Addr() fabric.Addr { return s.listener.Addr() }

func (s *Server) acceptLoop() error {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return nil // the listener closed
		}
		ch := newConnChannel(conn, s.boot.Factory, s.boot.Initializer)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			ch.Close()
			return nil
		}
		s.accepted = append(s.accepted, ch)
		s.mu.Unlock()
		s.boot.Group.Next().Register(ch, 0)
	}
}

// Close stops accepting and closes all accepted channels.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	chans := s.accepted
	s.mu.Unlock()
	s.listener.Close()
	s.accept.Wait()
	for _, ch := range chans {
		ch.Close()
	}
}
