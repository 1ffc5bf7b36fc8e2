package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/fifo"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/vtime"
)

// ErrShutdown is returned for operations on a stopped environment.
var ErrShutdown = errors.New("rpc: environment shut down")

// ErrConnectionLost is returned for asks whose channel died before the
// reply arrived (peer crash or network partition). Without it a fetch from
// a failed node would block forever: the reply simply never comes. The
// shuffle layer classifies it as a fetch failure.
var ErrConnectionLost = errors.New("rpc: connection lost")

// Handler processes calls delivered to an endpoint. Handlers run on the
// endpoint's dispatch goroutine, one call at a time (Spark's dispatcher
// semantics); long work must be handed off. The Call is the dispatcher's
// and is valid until the handler returns: work handed off takes copies of
// the fields it needs (the Payload slice itself may be kept).
type Handler func(c *Call)

// Call is one inbound endpoint message.
type Call struct {
	// From is the sender environment's name.
	From string
	// Payload is the opaque request body.
	Payload []byte
	// VT is the virtual time at which the handler runs.
	VT vtime.Stamp
	// ch and reqID address the answer to an ask; ch is nil on a one-way
	// message.
	ch    *netty.Channel
	reqID int64
}

// Reply answers an ask-style call. It is a no-op for one-way messages.
func (c *Call) Reply(payload []byte, vt vtime.Stamp) {
	if c.ch != nil {
		c.ch.Write(&RpcResponse{ReqID: c.reqID, Payload: payload}, vt)
	}
}

// Fail answers an ask-style call with an RpcFailure: the asker's Ask
// returns reason as its error. It is a no-op for one-way messages.
func (c *Call) Fail(reason string, vt vtime.Stamp) {
	if c.ch != nil {
		c.ch.Write(&RpcFailure{ReqID: c.reqID, Error: reason}, vt)
	}
}

// PipelineHooks lets a transport implementation (the MPI designs in
// internal/core) install extra handlers on every channel's pipeline.
type PipelineHooks interface {
	// InstallClient is invoked for channels this environment dialed.
	InstallClient(ch *netty.Channel, env *Env)
	// InstallServer is invoked for channels this environment accepted.
	InstallServer(ch *netty.Channel, env *Env)
}

// EnvConfig configures an Env: what differs between the designs. Every env
// dials over TCP (the MPI designs keep their sockets for establishment and
// headers) and runs one event loop.
type EnvConfig struct {
	// TransportFactory overrides the channel transport (MPI designs).
	TransportFactory netty.TransportFactory
	// Hooks install extra pipeline handlers (MPI designs).
	Hooks PipelineHooks
}

// DefaultEnvConfig returns the vanilla-Spark configuration: socket channels,
// no hooks.
func DefaultEnvConfig() EnvConfig { return EnvConfig{} }

// The modelled CPU costs of an env, in virtual time.
const (
	// dispatchCost is the endpoint dispatcher's cost per delivered call.
	dispatchCost = 2 * time.Microsecond
	// chunkServeCost is the stream manager's cost per served chunk and per
	// pushed block (Env.chunkEngine).
	chunkServeCost = 3 * time.Microsecond
	// readEventCost is the selector and pipeline cost per inbound message.
	readEventCost = 1 * time.Microsecond
)

type askReply struct {
	data []byte
	vt   vtime.Stamp
	err  error
}

// pendingAsk tracks one outstanding request: its reply plus the netty
// channel the request went out on, so a channel death can fail exactly the
// asks riding it.
type pendingAsk struct {
	ch    *netty.Channel
	reply vtime.Reply[askReply]
}

// peerRoute is the route to one peer address: a channel this env dialed,
// or the inbound channel a handler bound (Env.BindRoute), and the virtual
// time it can carry a first message. mu is held by the one dial in flight,
// so concurrent first sends to a peer share its channel and ready stamp.
type peerRoute struct {
	mu    sync.Mutex
	ch    *netty.Channel
	ready vtime.Stamp
}

// Env is a process's RPC environment (Spark's RpcEnv): a netty server, a
// set of named endpoints, a route per peer (a channel it dialed, or one a
// peer opened and a handler bound), and the block transfer service surface.
//
// Bodies cross the wire by reference on every transport, as mpi.Send
// documents for MPI: a payload handed to Ask, Send, Call.Reply, PushBlock
// or SendCollective, and a block returned by a registered resolver, must
// not be modified afterwards — the receiving handler reads (and may keep)
// that very slice. Likewise a received payload, reply or fetched block is
// read-only: it may alias memory the sender still serves to others.
type Env struct {
	name string
	node *fabric.Node
	cfg  EnvConfig

	group  *netty.EventLoopGroup
	server *netty.Server
	addr   fabric.Addr

	mu        sync.Mutex
	endpoints map[string]*endpoint
	conns     map[fabric.Addr]*peerRoute
	pending   map[int64]*pendingAsk
	batches   map[int64]*pendingBatch
	serveQ    fifo.Queue[*batchServe]
	pumping   bool
	closed    bool
	// threads runs the dispatch loops and the serve pump, each started under
	// mu while !closed: no Go follows Shutdown's Wait.
	threads vtime.Group

	reqSeq atomic.Int64

	// chunkEngine is the stream-manager thread's occupancy: every served
	// chunk and push pays chunkServeCost on it. A work-conserving Resource,
	// not a monotone clock, for the same reason as endpoint dispatch:
	// requests are handled in real-scheduler order, and an early-handled
	// late-stamped request must not inflate every later stamp past its own
	// virtual time.
	chunkEngine    vtime.Resource
	chunkResolver  func(blockID string) ([]byte, bool)
	collectiveSink func(m *CollectiveChunk, vt vtime.Stamp)
	pushHandler    func(m *PushBlockRequest, vt vtime.Stamp) ([]byte, error)
	onShutdown     []func()
}

// NewEnv starts an RPC environment named name on the given node, listening
// on port.
func NewEnv(name string, node *fabric.Node, port string, cfg EnvConfig) (*Env, error) {
	e := &Env{
		name:      name,
		node:      node,
		cfg:       cfg,
		endpoints: make(map[string]*endpoint),
		conns:     make(map[fabric.Addr]*peerRoute),
		pending:   make(map[int64]*pendingAsk),
		batches:   make(map[int64]*pendingBatch),
	}
	e.group = netty.NewEventLoopGroup(1, netty.LoopConfig{ReadEventCost: readEventCost})
	sb := &netty.ServerBootstrap{
		Group:   e.group,
		Factory: cfg.TransportFactory,
		Initializer: func(ch *netty.Channel) {
			e.initPipeline(ch, true)
		},
	}
	srv, err := sb.Listen(node, port)
	if err != nil {
		e.group.Shutdown()
		return nil, err
	}
	e.server = srv
	e.addr = srv.Addr()
	return e, nil
}

// Name returns the environment's name.
func (e *Env) Name() string { return e.name }

// Node returns the node the environment runs on.
func (e *Env) Node() *fabric.Node { return e.node }

// Addr returns the environment's listening address.
func (e *Env) Addr() fabric.Addr { return e.addr }

// Group exposes the environment's event loop group (the MPI-Basic design
// attaches its Iprobe poll to it).
func (e *Env) Group() *netty.EventLoopGroup { return e.group }

// initPipeline builds the standard Spark channel pipeline:
// frame codec, message codec, optional transport hooks, dispatcher.
func (e *Env) initPipeline(ch *netty.Channel, server bool) {
	// The channel's decoder and dispatcher are allocated together.
	tail := &struct {
		dec  messageDecoder
		disp dispatchHandler
	}{messageDecoder{names: interner{env: e}}, dispatchHandler{env: e}}
	p := ch.Pipeline()
	p.AddLast("frameEncoder", &netty.FrameEncoder{})
	p.AddLast("frameDecoder", &netty.FrameDecoder{})
	p.AddLast("messageEncoder", &messageEncoder{})
	p.AddLast("messageDecoder", &tail.dec)
	if e.cfg.Hooks != nil {
		if server {
			e.cfg.Hooks.InstallServer(ch, e)
		} else {
			e.cfg.Hooks.InstallClient(ch, e)
		}
	}
	p.AddLast("dispatcher", &tail.disp)
}

// messageEncoder turns typed Messages into wire frames: the header fields
// in a small buffer, the body attached by reference (Spark's
// MessageWithHeader). The body crosses the wire as the very slice the caller
// passed in.
type messageEncoder struct{}

func (h *messageEncoder) Write(ctx *netty.Context, msg any) {
	m, ok := msg.(Message)
	if !ok {
		// Already encoded (or raw) — pass through.
		ctx.Write(msg)
		return
	}
	head, body := encodeFrame(m)
	ctx.WriteFrame(head, body)
	// The frame encoder rewrites the head behind its length field before
	// the write returns, so the pooled header buffer can go straight back.
	head.Release()
}

// messageDecoder parses frames back into typed Messages. The frame dies with
// the traversal, but a decoded body aliases the bytes it framed — the
// attached body of a two-part frame, else the head's own bytes — which
// nothing recycles, so handlers may keep it. There is one per channel, and
// its interner keeps the channel's request strings.
type messageDecoder struct{ names interner }

func (h *messageDecoder) ChannelRead(ctx *netty.Context, msg any) {
	var m Message
	var err error
	switch f := msg.(type) {
	case *bytebuf.Buf:
		m, err = decodeFrame(f, nil, &h.names)
	case *netty.Frame:
		m, err = decodeFrame(f.Head, f.Body, &h.names)
	default:
		ctx.FireChannelRead(msg)
		return
	}
	if err != nil {
		return // corrupt frame: drop, as Spark's TransportChannelHandler logs-and-drops
	}
	ctx.FireChannelRead(m)
}

// dispatchHandler is the pipeline tail: it routes typed messages to
// endpoints, pending asks, and the block server.
type dispatchHandler struct{ env *Env }

func (h *dispatchHandler) ChannelRead(ctx *netty.Context, msg any) {
	e := h.env
	vt := ctx.VT()
	ch := ctx.Channel()
	switch m := msg.(type) {
	case *RpcRequest:
		e.deliverToEndpoint(m.Endpoint, Call{From: m.From, Payload: m.Payload, VT: vt, ch: ch, reqID: m.ReqID})
	case *OneWayMessage:
		e.deliverToEndpoint(m.Endpoint, Call{From: m.From, Payload: m.Payload, VT: vt})
	case *RpcResponse:
		e.resolveAsk(m.ReqID, askReply{data: m.Payload, vt: vt})
	case *RpcFailure:
		e.resolveAsk(m.ReqID, askReply{err: errors.New(m.Error), vt: vt})
	case *ChunkFetchRequest:
		e.serveBatch(ch, m, vt)
	case *ChunkFetchSuccess:
		local, remote := chanPeers(ch)
		e.resolveBatchChunk(m, vt, remote, local)
	case *CollectiveChunk:
		e.mu.Lock()
		sink := e.collectiveSink
		e.mu.Unlock()
		if sink != nil {
			sink(m, vt)
		}
	case *PushBlockRequest:
		e.deliverPush(ch, m, vt)
	}
}

// ChannelInactive fires when the channel's connection dies (FailNode, peer
// shutdown): every ask still riding the channel fails with
// ErrConnectionLost instead of blocking forever.
func (h *dispatchHandler) ChannelInactive(ctx *netty.Context) {
	h.env.failChannel(ctx.Channel())
}

func (e *Env) deliverToEndpoint(name string, c Call) {
	e.mu.Lock()
	ep := e.endpoints[name]
	e.mu.Unlock()
	if ep == nil {
		return
	}
	ep.queue.Push(c)
}

func (e *Env) resolveAsk(id int64, r askReply) {
	e.mu.Lock()
	p := e.pending[id]
	delete(e.pending, id)
	e.mu.Unlock()
	if p != nil {
		p.reply.Put(r)
	}
}

// failChannel resolves every pending ask and batch riding ch with
// ErrConnectionLost. The event loop closes channels whose connection died
// (FailNode, peer shutdown), which fires ChannelInactive exactly once —
// that is how a fetch from a dead executor becomes an error instead of a
// hang, on the socket designs and the MPI designs alike (the MPI designs
// keep their establishment socket, so a node failure still closes it).
func (e *Env) failChannel(ch *netty.Channel) {
	err := fmt.Errorf("%w: channel %s", ErrConnectionLost, ch.ID())
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, p := range e.pending {
		if p.ch == ch {
			delete(e.pending, id)
			p.reply.Put(askReply{err: err})
		}
	}
	// A dead channel fails only the batch blocks still in flight on it;
	// blocks that already landed keep their data, so a lost peer costs the
	// batch remainder, not the whole batch.
	for id, b := range e.batches {
		if b.ch == ch {
			delete(e.batches, id)
			b.failRemaining(err)
		}
	}
}

// checkChannelAlive fails the channel's pending asks if its connection
// already died — closing the race where the connection closes between
// connTo and the registration of a pending entry (ChannelInactive has
// already fired and will not fire again for that channel).
func (e *Env) checkChannelAlive(ch *netty.Channel) {
	if conn := ch.Conn(); conn != nil && conn.Closed() {
		e.failChannel(ch)
	}
}

// endpoint is a named message target with serialized dispatch. Dispatch
// occupancy is tracked on a work-conserving Resource rather than a
// monotone clock: calls are handled in real-scheduler arrival order, and
// if a late-stamped call is handled before an earlier-stamped one, the
// earlier call must backfill the idle gap — otherwise every dispatch
// stamp after a straggler inherits the straggler's virtual time, and the
// stamps themselves become a function of goroutine scheduling order.
type endpoint struct {
	name    string
	handler Handler
	engine  vtime.Resource
	queue   vtime.Mailbox[Call]
}

func (ep *endpoint) loop() {
	var c Call // the call in hand, lent to the handler (see Handler)
	var ok bool
	for c, ok = ep.queue.Recv(); ok; c, ok = ep.queue.Recv() {
		_, end := ep.engine.Occupy(c.VT, dispatchCost)
		c.VT = end
		ep.handler(&c)
	}
}

// RegisterEndpoint installs a named endpoint. Calls are dispatched
// sequentially on a dedicated goroutine.
func (e *Env) RegisterEndpoint(name string, h Handler) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrShutdown
	}
	if _, ok := e.endpoints[name]; ok {
		return fmt.Errorf("rpc: endpoint %q already registered", name)
	}
	ep := &endpoint{name: name, handler: h}
	e.endpoints[name] = ep
	e.threads.Go(func() error {
		ep.loop()
		return nil
	})
	return nil
}

// RegisterCollectiveSink installs the receiver for inbound CollectiveChunk
// messages (the collective layer's station). The sink runs on the channel's
// dispatch path and must not block.
func (e *Env) RegisterCollectiveSink(fn func(m *CollectiveChunk, vt vtime.Stamp)) {
	e.mu.Lock()
	e.collectiveSink = fn
	e.mu.Unlock()
}

// OnShutdown registers fn to run when the environment shuts down, after
// pending asks are failed. The collective layer uses it to fail blocked
// collective receives instead of hanging them.
func (e *Env) OnShutdown(fn func()) {
	e.mu.Lock()
	e.onShutdown = append(e.onShutdown, fn)
	e.mu.Unlock()
}

// SendCollective delivers one collective chunk to the peer environment. It
// returns the time the sender's CPU is free. Unlike Ask-style calls there
// is no reply: matching is the collective layer's job. m belongs to the
// write (see BodyMessage): the caller does not read or reuse it afterwards.
func (e *Env) SendCollective(peer fabric.Addr, m *CollectiveChunk, at vtime.Stamp) (vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return at, err
	}
	free := ch.Write(m, vt)
	if conn := ch.Conn(); conn != nil && conn.Closed() {
		return free, fmt.Errorf("%w: channel %s", ErrConnectionLost, ch.ID())
	}
	return free, nil
}

// connTo returns the channel to the peer environment at addr: its bound or
// earlier-dialed route while that channel lives, else one fresh dial, which
// concurrent callers wait for and share.
func (e *Env) connTo(addr fabric.Addr, at vtime.Stamp) (*netty.Channel, vtime.Stamp, error) {
	c, err := e.route(addr)
	if err != nil {
		return nil, at, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ch == nil || c.ch.Conn().Closed() {
		b := &netty.Bootstrap{
			Group:    e.group,
			Protocol: fabric.TCP,
			Factory:  e.cfg.TransportFactory,
			Initializer: func(ch *netty.Channel) {
				e.initPipeline(ch, false)
			},
		}
		ch, ready, err := b.Connect(e.node, addr, at)
		if err != nil {
			return nil, at, err
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			// Shutdown began during the dial and may have passed this
			// route already: nothing else would close the channel.
			ch.Close()
			return nil, at, ErrShutdown
		}
		c.ch, c.ready = ch, ready
	}
	return c.ch, vtime.Max(at, c.ready), nil
}

// route returns addr's entry in the route table, adding an empty one.
func (e *Env) route(addr fabric.Addr) (*peerRoute, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrShutdown
	}
	c := e.conns[addr]
	if c == nil {
		c = &peerRoute{}
		e.conns[addr] = c
	}
	return c, nil
}

// BindRoute makes the channel call arrived on the route to addr, usable from
// the call's virtual time: later sends to addr ride it instead of dialing.
// A peer that registers over its own connection is reached that way (Spark's
// RegisterExecutor). A route that is still alive is kept, and a dead bound
// channel is replaced by a dial at the next send. A one-way call carries no
// channel to bind: it is an error.
func (e *Env) BindRoute(call *Call, addr fabric.Addr) error {
	if call.ch == nil {
		return fmt.Errorf("rpc: a one-way call from %s has no channel to bind to %s", call.From, addr)
	}
	c, err := e.route(addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ch == nil || c.ch.Conn().Closed() {
		c.ch, c.ready = call.ch, call.VT
	}
	return nil
}

// roundTrip sends one request that an RpcResponse or RpcFailure carrying id
// answers, and blocks for it: register the pending reply on the channel to
// peer, write, fail at once if the channel died before the registration
// (checkChannelAlive), wait.
func (e *Env) roundTrip(peer fabric.Addr, id int64, req Message, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	p := &pendingAsk{ch: ch}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, at, ErrShutdown
	}
	e.pending[id] = p
	e.mu.Unlock()
	ch.Write(req, vt)
	e.checkChannelAlive(ch)
	r := p.reply.Wait()
	return r.data, vtime.Max(r.vt, at), r.err
}

// Ask performs a request/response RPC against the named endpoint at peer.
// It blocks until the reply arrives and returns the payload plus the
// virtual completion time.
func (e *Env) Ask(peer fabric.Addr, endpointName string, payload []byte, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	id := e.reqSeq.Add(1)
	return e.roundTrip(peer, id, &RpcRequest{ReqID: id, Endpoint: endpointName, From: e.name, Payload: payload}, at)
}

// Send delivers a one-way message to the named endpoint at peer. It
// returns the virtual time the caller's CPU is free.
func (e *Env) Send(peer fabric.Addr, endpointName string, payload []byte, at vtime.Stamp) (vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return at, err
	}
	free := ch.Write(&OneWayMessage{Endpoint: endpointName, From: e.name, Payload: payload}, vt)
	return free, nil
}

// Shutdown stops the environment: the server, all connections, all
// endpoints, and the event loops. The serve pump stops streaming at its next
// turn: a chunk it is writing when Shutdown starts is the last. It joins
// both, and every dispatch loop, so a handler must not call it.
func (e *Env) Shutdown() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	eps := e.endpoints
	conns := e.conns
	shutdownFns := e.onShutdown
	e.onShutdown = nil
	for _, p := range e.pending {
		p.reply.Put(askReply{err: ErrShutdown})
	}
	for _, b := range e.batches {
		b.failRemaining(ErrShutdown)
	}
	e.pending = make(map[int64]*pendingAsk)
	e.batches = make(map[int64]*pendingBatch)
	e.mu.Unlock()

	for _, fn := range shutdownFns {
		fn()
	}
	for _, ep := range eps {
		ep.queue.Close()
	}
	for _, c := range conns {
		// Taking c.mu waits out a dial in flight, so its channel is closed
		// here too; a dial that starts later sees closed and closes its own.
		c.mu.Lock()
		ch := c.ch
		c.mu.Unlock()
		if ch != nil {
			ch.Close()
		}
	}
	e.server.Close()
	e.group.Shutdown()
	e.threads.Wait()
}
