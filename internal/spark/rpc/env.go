package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/vtime"
)

// DefaultBatchChunkBytes bounds a BlockBatchChunk body when the requester
// does not specify a chunk size.
const DefaultBatchChunkBytes = 1 << 20

// ErrShutdown is returned for operations on a stopped environment.
var ErrShutdown = errors.New("rpc: environment shut down")

// ErrConnectionLost is returned for asks whose channel died before the
// reply arrived (peer crash or network partition). Without it a fetch from
// a failed node would block forever: the reply simply never comes. The
// shuffle layer classifies it as a fetch failure.
var ErrConnectionLost = errors.New("rpc: connection lost")

// Handler processes calls delivered to an endpoint. Handlers run on the
// endpoint's dispatch goroutine, one call at a time (Spark's dispatcher
// semantics); long work must be handed off.
type Handler func(c *Call)

// Call is one inbound endpoint message.
type Call struct {
	// From is the sender environment's name.
	From string
	// Payload is the opaque request body.
	Payload []byte
	// VT is the virtual time at which the handler runs.
	VT    vtime.Stamp
	reply func(payload []byte, vt vtime.Stamp)
}

// Reply answers an ask-style call. It is a no-op for one-way messages.
func (c *Call) Reply(payload []byte, vt vtime.Stamp) {
	if c.reply != nil {
		c.reply(payload, vt)
	}
}

// OneWay reports whether the call expects no reply.
func (c *Call) OneWay() bool { return c.reply == nil }

// PipelineHooks lets a transport implementation (the MPI designs in
// internal/core) install extra handlers on every channel's pipeline.
type PipelineHooks interface {
	// InstallClient is invoked for channels this environment dialed.
	InstallClient(ch *netty.Channel, env *Env)
	// InstallServer is invoked for channels this environment accepted.
	InstallServer(ch *netty.Channel, env *Env)
}

// EnvConfig configures an Env.
type EnvConfig struct {
	// DispatchCost is the modeled per-message endpoint dispatch cost.
	DispatchCost time.Duration
	// ChunkServeCost is the modeled per-request stream-manager cost for
	// chunk fetches.
	ChunkServeCost time.Duration
	// ReadEventCost is the modeled selector/pipeline cost per inbound
	// message.
	ReadEventCost time.Duration
	// Protocol is the socket protocol used for dialing (TCP for Spark;
	// the MPI designs keep TCP sockets for establishment and headers).
	Protocol fabric.Protocol
	// EventLoops is the number of event loops (default 1).
	EventLoops int
	// TransportFactory overrides the channel transport (MPI designs).
	TransportFactory netty.TransportFactory
	// Hooks install extra pipeline handlers (MPI designs).
	Hooks PipelineHooks
}

// DefaultEnvConfig returns the vanilla-Spark configuration.
func DefaultEnvConfig() EnvConfig {
	return EnvConfig{
		DispatchCost:   2 * time.Microsecond,
		ChunkServeCost: 3 * time.Microsecond,
		ReadEventCost:  1 * time.Microsecond,
		Protocol:       fabric.TCP,
		EventLoops:     1,
	}
}

type askReply struct {
	data []byte
	vt   vtime.Stamp
	err  error
}

// pendingAsk tracks one outstanding request: the reply channel plus the
// netty channel the request went out on, so a channel death can fail
// exactly the asks riding it.
type pendingAsk struct {
	ch    *netty.Channel
	reply chan askReply
}

type clientConn struct {
	ch    *netty.Channel
	ready vtime.Stamp
}

// Env is a process's RPC environment (Spark's RpcEnv): a netty server, a
// set of named endpoints, outbound connections, and the block/stream
// transfer service surface.
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

	mu            sync.Mutex
	endpoints     map[string]*endpoint
	conns         map[string]*clientConn
	pending       map[int64]*pendingAsk
	streamPending map[string][]*pendingAsk
	batches       map[int64]*pendingBatch
	serveQ        []*batchServe
	pumping       bool
	closed        bool

	reqSeq atomic.Int64

	// chunkEngine is the stream-manager thread's occupancy: every served
	// chunk, push, and stream response pays ChunkServeCost on it. A
	// work-conserving Resource, not a monotone clock, for the same reason
	// as endpoint dispatch: requests are handled in real-scheduler order,
	// and an early-handled late-stamped request must not inflate every
	// later stamp past its own virtual time.
	chunkEngine    vtime.Resource
	chunkResolver  func(blockID string) ([]byte, bool)
	rangeRewriter  func(blockID string, mapLo, mapHi int) string
	streamResolver func(streamID string) ([]byte, bool)
	collectiveSink func(m *CollectiveChunk, vt vtime.Stamp)
	pushHandler    func(m *PushBlockRequest, vt vtime.Stamp) ([]byte, error)
	onShutdown     []func()

	// OnChannelActive, when set, observes every new channel (diagnostics
	// and the connection-establishment rank exchange in internal/core).
	OnChannelActive func(ch *netty.Channel, server bool)
}

// NewEnv starts an RPC environment named name on the given node, listening
// on port.
func NewEnv(name string, node *fabric.Node, port string, cfg EnvConfig) (*Env, error) {
	if cfg.EventLoops < 1 {
		cfg.EventLoops = 1
	}
	e := &Env{
		name:      name,
		node:      node,
		cfg:       cfg,
		endpoints: make(map[string]*endpoint),
		conns:     make(map[string]*clientConn),
		pending:   make(map[int64]*pendingAsk),
		batches:   make(map[int64]*pendingBatch),
	}
	e.group = netty.NewEventLoopGroup(cfg.EventLoops, netty.LoopConfig{ReadEventCost: cfg.ReadEventCost})
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
	p := ch.Pipeline()
	p.AddLast("frameEncoder", &netty.FrameEncoder{})
	p.AddLast("frameDecoder", &netty.FrameDecoder{})
	p.AddLast("messageEncoder", &messageEncoder{})
	p.AddLast("messageDecoder", &messageDecoder{})
	if e.cfg.Hooks != nil {
		if server {
			e.cfg.Hooks.InstallServer(ch, e)
		} else {
			e.cfg.Hooks.InstallClient(ch, e)
		}
	}
	p.AddLast("dispatcher", &dispatchHandler{env: e})
	if e.OnChannelActive != nil {
		e.OnChannelActive(ch, server)
	}
}

// bodyFaults is the slice of an installed fault plane the rpc layer
// consults for payload-level faults: in-flight corruption and duplicate
// delivery. The fabric owns the plane (fabric.SetFaultPlane); probing it
// structurally keeps the rpc layer free of a faults dependency, and an
// installed plane that only models delays simply doesn't match.
type bodyFaults interface {
	CorruptBody(from, to, key string, body []byte, at vtime.Stamp) ([]byte, bool)
	DupDeliver(from, to, key string, at vtime.Stamp) bool
}

// bodyFaultPlane returns the fabric's fault plane when it injects body
// faults, else nil.
func (e *Env) bodyFaultPlane() bodyFaults {
	if p := e.node.Fabric().FaultPlane(); p != nil {
		if bf, ok := p.(bodyFaults); ok {
			return bf
		}
	}
	return nil
}

// chanPeers returns the local and remote node names of ch's connection,
// for fault-plane link matching ("" when unknown).
func chanPeers(ch *netty.Channel) (local, remote string) {
	if conn := ch.Conn(); conn != nil {
		if n := conn.LocalNode(); n != nil {
			local = n.Name()
		}
		if n := conn.RemoteNode(); n != nil {
			remote = n.Name()
		}
	}
	return
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
	if body == nil {
		ctx.Write(head)
	} else {
		ctx.Write(&netty.Frame{Head: head, Body: body})
	}
	// The frame encoder rewrites the head behind its length field before
	// the write returns, so the pooled header buffer can go straight back.
	head.Release()
}

// messageDecoder parses frames back into typed Messages. A decoded body
// aliases the frame — the attached body of a two-part frame, else the
// frame's own bytes — which nothing recycles, so handlers may keep it.
type messageDecoder struct{}

func (h *messageDecoder) ChannelRead(ctx *netty.Context, msg any) {
	var m Message
	var err error
	switch f := msg.(type) {
	case *bytebuf.Buf:
		m, err = Decode(f)
	case *netty.Frame:
		m, err = DecodeFrame(f.Head, f.Body)
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
// endpoints, pending asks, and the chunk/stream managers.
type dispatchHandler struct{ env *Env }

func (h *dispatchHandler) ChannelRead(ctx *netty.Context, msg any) {
	e := h.env
	vt := ctx.VT()
	ch := ctx.Channel()
	switch m := msg.(type) {
	case *RpcRequest:
		e.deliverToEndpoint(m.Endpoint, &Call{
			From:    m.From,
			Payload: m.Payload,
			VT:      vt,
			reply: func(payload []byte, rvt vtime.Stamp) {
				ch.Write(&RpcResponse{ReqID: m.ReqID, Payload: payload}, rvt)
			},
		})
	case *OneWayMessage:
		e.deliverToEndpoint(m.Endpoint, &Call{From: m.From, Payload: m.Payload, VT: vt})
	case *RpcResponse:
		e.resolveAsk(m.ReqID, askReply{data: m.Payload, vt: vt})
	case *RpcFailure:
		e.resolveAsk(m.ReqID, askReply{err: errors.New(m.Error), vt: vt})
	case *ChunkFetchRequest:
		e.serveChunk(ch, m, vt)
	case *ChunkFetchSuccess:
		e.resolveAsk(m.FetchID, askReply{data: m.Body, vt: vt})
	case *FetchBlocksRequest:
		e.serveBatch(ch, m, vt)
	case *BlockBatchChunk:
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
		e.servePush(ch, m, vt)
		// Duplicate delivery of a push (a retransmitted request whose
		// original also landed) exercises the service's idempotent ingest:
		// the replay acks AckDuplicate and merges nothing.
		if bf := e.bodyFaultPlane(); bf != nil {
			local, remote := chanPeers(ch)
			key := fmt.Sprintf("push_%d_%d_%d", m.ShuffleID, m.MapID, m.ReduceID)
			if bf.DupDeliver(remote, local, key, vt) {
				e.servePush(ch, m, vt)
			}
		}
	case *StreamRequest:
		e.serveStream(ch, m, vt)
	case *StreamResponse:
		e.resolveStream(m, vt)
	}
}

// ChannelInactive fires when the channel's connection dies (FailNode, peer
// shutdown): every ask still riding the channel fails with
// ErrConnectionLost instead of blocking forever.
func (h *dispatchHandler) ChannelInactive(ctx *netty.Context) {
	h.env.failChannel(ctx.Channel())
}

func (e *Env) deliverToEndpoint(name string, c *Call) {
	e.mu.Lock()
	ep := e.endpoints[name]
	e.mu.Unlock()
	if ep == nil {
		return
	}
	ep.enqueue(c)
}

func (e *Env) resolveAsk(id int64, r askReply) {
	e.mu.Lock()
	p := e.pending[id]
	delete(e.pending, id)
	e.mu.Unlock()
	if p != nil {
		p.reply <- r
	}
}

// failChannel resolves every pending ask and stream waiter riding ch with
// ErrConnectionLost. The event loop closes channels whose connection died
// (FailNode, peer shutdown), which fires ChannelInactive exactly once —
// that is how a fetch from a dead executor becomes an error instead of a
// hang, on the socket designs and the MPI designs alike (the MPI designs
// keep their establishment socket, so a node failure still closes it).
func (e *Env) failChannel(ch *netty.Channel) {
	err := fmt.Errorf("%w: channel %s", ErrConnectionLost, ch.ID())
	var victims []chan askReply
	var batchDone []chan struct{}
	e.mu.Lock()
	for id, p := range e.pending {
		if p.ch == ch {
			delete(e.pending, id)
			victims = append(victims, p.reply)
		}
	}
	for sid, ws := range e.streamPending {
		keep := ws[:0]
		for _, w := range ws {
			if w.ch == ch {
				victims = append(victims, w.reply)
			} else {
				keep = append(keep, w)
			}
		}
		if len(keep) == 0 {
			delete(e.streamPending, sid)
		} else {
			e.streamPending[sid] = keep
		}
	}
	// A dead channel fails only the batch blocks still in flight on it;
	// blocks that already landed keep their data, so a lost peer costs the
	// batch remainder, not the whole batch.
	for id, b := range e.batches {
		if b.ch == ch {
			delete(e.batches, id)
			b.failRemaining(err)
			batchDone = append(batchDone, b.done)
		}
	}
	e.mu.Unlock()
	for _, v := range victims {
		v <- askReply{err: err}
	}
	for _, d := range batchDone {
		close(d)
	}
}

// registerAsk records an outstanding request on ch. It returns false when
// the environment is shut down.
func (e *Env) registerAsk(id int64, p *pendingAsk) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.pending[id] = p
	return true
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

// servePush hands one pushed block to the registered push handler and acks
// with an RpcResponse (or RpcFailure) correlated by PushID. Like chunk
// serving it is charged on the stream-manager clock.
func (e *Env) servePush(ch *netty.Channel, m *PushBlockRequest, vt vtime.Stamp) {
	e.mu.Lock()
	handler := e.pushHandler
	e.mu.Unlock()
	_, svt := e.chunkEngine.Occupy(vt, e.cfg.ChunkServeCost)
	if handler == nil {
		ch.Write(&RpcFailure{ReqID: m.PushID, Error: "no push handler"}, svt)
		return
	}
	// In-flight corruption of the pushed body, drawn per block. The damaged
	// copy stays local to this delivery (a duplicate delivery of the same
	// request re-corrupts from the original, drawing the same verdict), and
	// the carried CRC32C is what lets the service reject it at ingest.
	if bf := e.bodyFaultPlane(); bf != nil {
		local, remote := chanPeers(ch)
		key := fmt.Sprintf("push_%d_%d_%d", m.ShuffleID, m.MapID, m.ReduceID)
		if nb, ok := bf.CorruptBody(remote, local, key, m.Body, vt); ok {
			dm := *m
			dm.Body = nb
			m = &dm
		}
	}
	ack, err := handler(m, svt)
	if err != nil {
		ch.Write(&RpcFailure{ReqID: m.PushID, Error: err.Error()}, svt)
		return
	}
	ch.Write(&RpcResponse{ReqID: m.PushID, Payload: ack}, svt)
}

// serveChunk answers a ChunkFetchRequest from the registered resolver.
// Serving is serialized on the environment's stream-manager clock.
func (e *Env) serveChunk(ch *netty.Channel, m *ChunkFetchRequest, vt vtime.Stamp) {
	e.mu.Lock()
	resolver := e.chunkResolver
	e.mu.Unlock()
	_, svt := e.chunkEngine.Occupy(vt, e.cfg.ChunkServeCost)
	if resolver == nil {
		ch.Write(&RpcFailure{ReqID: m.FetchID, Error: "no chunk resolver"}, svt)
		return
	}
	body, ok := resolver(m.BlockID)
	if !ok {
		ch.Write(&RpcFailure{ReqID: m.FetchID, Error: fmt.Sprintf("block not found: %s", m.BlockID)}, svt)
		return
	}
	// In-flight corruption of the served block. CorruptBody returns a
	// damaged copy, so the resolver's stored bytes stay good and a refetch
	// at a later stamp can draw a clean verdict.
	if bf := e.bodyFaultPlane(); bf != nil {
		local, remote := chanPeers(ch)
		if nb, ok := bf.CorruptBody(local, remote, m.BlockID, body, vt); ok {
			body = nb
		}
	}
	ch.Write(&ChunkFetchSuccess{FetchID: m.FetchID, BlockID: m.BlockID, Body: body}, svt)
}

// batchServe is the server-side streaming state of one FetchBlocksRequest:
// the resolved block bodies plus a cursor marking the next chunk to emit.
type batchServe struct {
	ch         *netty.Channel
	id         int64
	chunkBytes int
	bodies     [][]byte
	found      []bool
	cur        int // next block index
	off        int // offset within the current block
	vt         vtime.Stamp
}

// serveBatch answers a FetchBlocksRequest by streaming every requested
// block back as bounded-size BlockBatchChunk messages. Blocks are resolved
// at dispatch time, then the batch joins the environment's serve queue:
// a single pump goroutine emits one chunk per queue turn, round-robin
// across all active batches, so concurrent reducers' streams interleave on
// the stream manager (as Netty's chunked streams interleave on the event
// loop) instead of one batch monopolizing the NIC until done — burst-
// serving whole batches FIFO starves whichever reducer is served last and
// its straggling fetch bounds the stage. Each chunk is charged one
// ChunkServeCost on the stream-manager clock; on the MPI designs each
// chunk becomes one eager/rendezvous MPI message. A block the resolver
// cannot find is reported as a single Missing chunk, failing only that
// block.
func (e *Env) serveBatch(ch *netty.Channel, m *FetchBlocksRequest, vt vtime.Stamp) {
	e.mu.Lock()
	resolver := e.chunkResolver
	rewriter := e.rangeRewriter
	e.mu.Unlock()
	chunkBytes := int(m.ChunkBytes)
	if chunkBytes <= 0 {
		chunkBytes = DefaultBatchChunkBytes
	}
	b := &batchServe{
		ch: ch, id: m.BatchID, chunkBytes: chunkBytes,
		bodies: make([][]byte, len(m.BlockIDs)),
		found:  make([]bool, len(m.BlockIDs)),
		vt:     vt,
	}
	bf := e.bodyFaultPlane()
	var local, remote string
	if bf != nil {
		local, remote = chanPeers(ch)
	}
	for i, id := range m.BlockIDs {
		if m.MapHi > m.MapLo && rewriter != nil {
			id = rewriter(id, int(m.MapLo), int(m.MapHi))
		}
		if resolver != nil {
			b.bodies[i], b.found[i] = resolver(id)
		}
		// In-flight corruption, one verdict per served block (a merged run
		// is one block: any flipped bit in it is one detectable anomaly).
		// The damaged copy never touches the resolver's stored bytes.
		if b.found[i] && bf != nil {
			if nb, ok := bf.CorruptBody(local, remote, id, b.bodies[i], vt); ok {
				b.bodies[i] = nb
			}
		}
	}
	if len(b.bodies) == 0 {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.serveQ = append(e.serveQ, b)
	start := !e.pumping
	if start {
		e.pumping = true
	}
	e.mu.Unlock()
	if start {
		go e.servePump()
	}
}

// servePump drains the serve queue one chunk at a time, re-queueing
// batches that still have chunks left. It exits when the queue is empty;
// the next serveBatch restarts it.
func (e *Env) servePump() {
	for {
		e.mu.Lock()
		if len(e.serveQ) == 0 {
			e.pumping = false
			e.mu.Unlock()
			return
		}
		b := e.serveQ[0]
		e.serveQ = e.serveQ[1:]
		e.mu.Unlock()
		if e.serveNextChunk(b) {
			e.mu.Lock()
			e.serveQ = append(e.serveQ, b)
			e.mu.Unlock()
		}
	}
}

// serveNextChunk emits batch b's next chunk and reports whether the batch
// has more to send.
func (e *Env) serveNextChunk(b *batchServe) bool {
	i := b.cur
	_, svt := e.chunkEngine.Occupy(b.vt, e.cfg.ChunkServeCost)
	if !b.found[i] {
		b.ch.Write(&BlockBatchChunk{BatchID: b.id, Index: uint32(i), Missing: true}, svt)
		b.cur++
		b.off = 0
		return b.cur < len(b.bodies)
	}
	body := b.bodies[i]
	total := len(body)
	end := b.off + b.chunkBytes
	if end > total {
		end = total
	}
	b.ch.Write(&BlockBatchChunk{
		BatchID: b.id, Index: uint32(i),
		Total: uint64(total), Offset: uint64(b.off),
		Body: body[b.off:end],
	}, svt)
	b.off = end
	if b.off >= total {
		b.cur++
		b.off = 0
	}
	return b.cur < len(b.bodies)
}

// batchBlock is the client-side reassembly state of one block in a batch.
type batchBlock struct {
	// data is the block once done: its chunk bodies by reference where they
	// are consecutive windows of the served block, as all chunks of an
	// undisturbed transfer are (never pooled: the block outlives the fetch).
	data  bytebuf.Reassembly
	got   uint64
	total uint64
	vt    vtime.Stamp
	err   error
	done  bool
}

// pendingBatch tracks one outstanding FetchBlocksRequest: the channel it
// rides (so a channel death fails exactly its in-flight blocks) and the
// per-block reassembly state.
type pendingBatch struct {
	ch        *netty.Channel
	ids       []string
	blocks    []batchBlock
	remaining int
	done      chan struct{}
}

// failRemaining marks every not-yet-landed block failed. Caller holds
// e.mu and closes b.done after unlocking.
func (b *pendingBatch) failRemaining(err error) {
	for i := range b.blocks {
		blk := &b.blocks[i]
		if !blk.done {
			blk.err = err
			blk.done = true
			b.remaining--
		}
	}
}

// resolveBatchChunk folds one inbound chunk into its batch, then — under an
// installed fault plane — may fold the same chunk again, modeling a
// retransmitted frame whose original also landed. The replay must be (and
// is) rejected by the reassembly offset guard, so duplicate delivery is
// idempotent end to end. from/to name the sending and receiving nodes for
// fault-plane link matching.
func (e *Env) resolveBatchChunk(m *BlockBatchChunk, vt vtime.Stamp, from, to string) {
	if e.foldBatchChunk(m, vt, from, to, true) {
		e.foldBatchChunk(m, vt, from, to, false)
	}
}

// foldBatchChunk folds one chunk into its batch's reassembly state and
// reports whether a duplicate delivery of this chunk should be folded too
// (verdicts are only drawn when allowDup — the replay itself must not draw
// another). Chunks of one batch arrive in order on the batch's channel (the
// MPI-Optimized design recvs each diverted body before firing the header
// onward), so reassembly appends at blk.got; a chunk whose Offset is not
// the append cursor is a replay (or corruption) and is dropped rather than
// appended — appending it blindly would double-count duplicated bytes and
// mark the block complete with garbage layout.
func (e *Env) foldBatchChunk(m *BlockBatchChunk, vt vtime.Stamp, from, to string, allowDup bool) (dup bool) {
	metrics.GetCounter("shuffle.fetch.chunks").Inc()
	var doneCh chan struct{}
	e.mu.Lock()
	b := e.batches[m.BatchID]
	if b == nil || int(m.Index) >= len(b.blocks) {
		e.mu.Unlock()
		return false // stale chunk of an aborted batch
	}
	if allowDup {
		if bf := e.bodyFaultPlane(); bf != nil {
			key := fmt.Sprintf("%s@%d", b.ids[m.Index], m.Offset)
			dup = bf.DupDeliver(from, to, key, vt)
		}
	}
	blk := &b.blocks[m.Index]
	if blk.done {
		e.mu.Unlock()
		return dup
	}
	if m.Missing {
		blk.err = fmt.Errorf("block not found: %s", b.ids[m.Index])
		blk.vt = vtime.Max(blk.vt, vt)
		blk.done = true
		b.remaining--
	} else if m.Offset != blk.got {
		// Replayed (or reordered) chunk: the append cursor has moved past
		// its offset, so its bytes are already folded. Drop it.
		e.mu.Unlock()
		return dup
	} else {
		blk.data.Add(m.Body, m.Total)
		blk.total = m.Total
		blk.got += uint64(len(m.Body))
		blk.vt = vtime.Max(blk.vt, vt)
		if blk.got >= blk.total {
			blk.done = true
			b.remaining--
		}
	}
	if b.remaining == 0 {
		delete(e.batches, m.BatchID)
		doneCh = b.done
	}
	e.mu.Unlock()
	if doneCh != nil {
		close(doneCh)
	}
	return dup
}

// BatchBlockResult is one block's outcome within a batched fetch: its
// bytes, the virtual time its last chunk arrived, or a per-block error.
// Data is an immutable garbage-collected slice, valid for as long as it is
// referenced: its chunk bodies by reference, aliasing the bytes the serving
// environment's resolver returned (bytebuf.Reassembly); only a block with a
// chunk that was copied on the way is reassembled, once, at its exact size.
type BatchBlockResult struct {
	Data []byte
	VT   vtime.Stamp
	Err  error
}

// Release does nothing; it exists for bench/ and a later benchmark PR may
// drop it.
func (BatchBlockResult) Release() {}

// FetchBlockBatch fetches a batch of blocks from the peer's resolver in
// one round-trip using the FetchBlocksRequest/BlockBatchChunk pair. It
// blocks until every block has landed or failed and returns per-block
// results (index-aligned with blockIDs) plus the batch completion time.
// The top-level error covers only request-side failures (shutdown,
// connect); per-block failures — missing blocks, a peer dying mid-batch —
// are reported in the results so landed siblings survive.
func (e *Env) FetchBlockBatch(peer fabric.Addr, blockIDs []string, chunkBytes int, at vtime.Stamp) ([]BatchBlockResult, vtime.Stamp, error) {
	return e.FetchBlockBatchRange(peer, blockIDs, chunkBytes, 0, 0, at)
}

// FetchBlockBatchRange is FetchBlockBatch with a map-id range restriction:
// merged-run block ids in the batch are served as their [mapLo, mapHi)
// slice via the peer's registered range rewriter. mapHi == 0 means
// unrestricted. Non-merged block ids are unaffected.
func (e *Env) FetchBlockBatchRange(peer fabric.Addr, blockIDs []string, chunkBytes, mapLo, mapHi int, at vtime.Stamp) ([]BatchBlockResult, vtime.Stamp, error) {
	if len(blockIDs) == 0 {
		return nil, at, nil
	}
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	id := e.reqSeq.Add(1)
	b := &pendingBatch{
		ch:        ch,
		ids:       blockIDs,
		blocks:    make([]batchBlock, len(blockIDs)),
		remaining: len(blockIDs),
		done:      make(chan struct{}),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, at, ErrShutdown
	}
	e.batches[id] = b
	e.mu.Unlock()
	ch.Write(&FetchBlocksRequest{
		BatchID: id, ChunkBytes: uint32(chunkBytes),
		MapLo: uint32(mapLo), MapHi: uint32(mapHi),
		BlockIDs: blockIDs,
	}, vt)
	e.checkChannelAlive(ch)
	<-b.done
	// After done closes the batch is unregistered: no goroutine mutates it.
	out := make([]BatchBlockResult, len(blockIDs))
	maxVT := at
	for i := range b.blocks {
		blk := &b.blocks[i]
		r := BatchBlockResult{VT: vtime.Max(blk.vt, at), Err: blk.err}
		if blk.err == nil {
			r.Data = blk.data.Bytes()
		}
		if r.VT > maxVT {
			maxVT = r.VT
		}
		out[i] = r
	}
	return out, maxVT, nil
}

func (e *Env) serveStream(ch *netty.Channel, m *StreamRequest, vt vtime.Stamp) {
	e.mu.Lock()
	resolver := e.streamResolver
	e.mu.Unlock()
	_, svt := e.chunkEngine.Occupy(vt, e.cfg.ChunkServeCost)
	if resolver == nil {
		return
	}
	if body, ok := resolver(m.StreamID); ok {
		ch.Write(&StreamResponse{StreamID: m.StreamID, Body: body}, svt)
	}
}

func (e *Env) resolveStream(m *StreamResponse, vt vtime.Stamp) {
	e.mu.Lock()
	waiters := e.streamPending[m.StreamID]
	delete(e.streamPending, m.StreamID)
	e.mu.Unlock()
	// Every concurrent fetcher of the stream resolves from one response
	// (duplicate requests for the same stream are folded together).
	for _, w := range waiters {
		w.reply <- askReply{data: m.Body, vt: vt}
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
	cost    time.Duration
	engine  vtime.Resource

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Call
	closed bool
}

func (ep *endpoint) enqueue(c *Call) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.queue = append(ep.queue, c)
	ep.cond.Signal()
}

func (ep *endpoint) loop() {
	for {
		ep.mu.Lock()
		for len(ep.queue) == 0 && !ep.closed {
			ep.cond.Wait()
		}
		if len(ep.queue) == 0 && ep.closed {
			ep.mu.Unlock()
			return
		}
		c := ep.queue[0]
		ep.queue = ep.queue[1:]
		ep.mu.Unlock()
		_, end := ep.engine.Occupy(c.VT, ep.cost)
		c.VT = end
		ep.handler(c)
	}
}

func (ep *endpoint) close() {
	ep.mu.Lock()
	ep.closed = true
	ep.cond.Broadcast()
	ep.mu.Unlock()
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
	ep := &endpoint{name: name, handler: h, cost: e.cfg.DispatchCost}
	ep.cond = sync.NewCond(&ep.mu)
	e.endpoints[name] = ep
	go ep.loop()
	return nil
}

// RegisterChunkResolver installs the block resolver behind ChunkFetch
// requests (the BlockTransferService server side).
func (e *Env) RegisterChunkResolver(fn func(blockID string) ([]byte, bool)) {
	e.mu.Lock()
	e.chunkResolver = fn
	e.mu.Unlock()
}

// RegisterRangeRewriter installs the hook that maps a block id to its
// ranged form when a FetchBlocksRequest carries a map-id restriction. The
// rpc layer knows nothing about shuffle block naming — the external
// shuffle service registers a rewriter that turns merged-run ids into
// ranged merged-run ids and leaves everything else untouched.
func (e *Env) RegisterRangeRewriter(fn func(blockID string, mapLo, mapHi int) string) {
	e.mu.Lock()
	e.rangeRewriter = fn
	e.mu.Unlock()
}

// RegisterStreamResolver installs the resolver behind StreamRequests.
func (e *Env) RegisterStreamResolver(fn func(streamID string) ([]byte, bool)) {
	e.mu.Lock()
	e.streamResolver = fn
	e.mu.Unlock()
}

// RegisterPushHandler installs the receiver for inbound PushBlockRequest
// messages (the external shuffle service's ingest side). The handler's
// returned bytes become the RpcResponse ack payload; an error becomes an
// RpcFailure.
func (e *Env) RegisterPushHandler(fn func(m *PushBlockRequest, vt vtime.Stamp) ([]byte, error)) {
	e.mu.Lock()
	e.pushHandler = fn
	e.mu.Unlock()
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
// is no reply: matching is the collective layer's job.
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

// connTo returns a (cached) channel to the peer environment at addr.
func (e *Env) connTo(addr fabric.Addr, at vtime.Stamp) (*netty.Channel, vtime.Stamp, error) {
	key := addr.String()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, at, ErrShutdown
	}
	if c, ok := e.conns[key]; ok && !c.ch.Conn().Closed() {
		e.mu.Unlock()
		return c.ch, vtime.Max(at, c.ready), nil
	}
	e.mu.Unlock()

	b := &netty.Bootstrap{
		Group:    e.group,
		Protocol: e.cfg.Protocol,
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
	e.conns[key] = &clientConn{ch: ch, ready: ready}
	e.mu.Unlock()
	return ch, ready, nil
}

// Ask performs a request/response RPC against the named endpoint at peer.
// It blocks until the reply arrives and returns the payload plus the
// virtual completion time.
func (e *Env) Ask(peer fabric.Addr, endpointName string, payload []byte, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	id := e.reqSeq.Add(1)
	reply := make(chan askReply, 1)
	if !e.registerAsk(id, &pendingAsk{ch: ch, reply: reply}) {
		return nil, at, ErrShutdown
	}
	ch.Write(&RpcRequest{ReqID: id, Endpoint: endpointName, From: e.name, Payload: payload}, vt)
	e.checkChannelAlive(ch)
	r := <-reply
	return r.data, vtime.Max(r.vt, at), r.err
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

// FetchChunk fetches a block from the peer's chunk resolver using the
// ChunkFetchRequest/Success message pair — the shuffle data path.
func (e *Env) FetchChunk(peer fabric.Addr, blockID string, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	id := e.reqSeq.Add(1)
	reply := make(chan askReply, 1)
	if !e.registerAsk(id, &pendingAsk{ch: ch, reply: reply}) {
		return nil, at, ErrShutdown
	}
	ch.Write(&ChunkFetchRequest{FetchID: id, BlockID: blockID}, vt)
	e.checkChannelAlive(ch)
	r := <-reply
	return r.data, vtime.Max(r.vt, at), r.err
}

// PushBlock pushes one committed shuffle block to the external shuffle
// service at peer and blocks for the ack — map tasks only report success
// once the service owns the block. sum is the block's write-time CRC32C,
// which the service verifies at ingest (0 disables verification, for
// hand-built test pushes). It returns the service's ack payload and the
// virtual completion time.
func (e *Env) PushBlock(peer fabric.Addr, shuffleID, mapID, reduceID int, body []byte, sum uint32, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	id := e.reqSeq.Add(1)
	reply := make(chan askReply, 1)
	if !e.registerAsk(id, &pendingAsk{ch: ch, reply: reply}) {
		return nil, at, ErrShutdown
	}
	ch.Write(&PushBlockRequest{PushID: id, ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID, Body: body, Sum: sum}, vt)
	e.checkChannelAlive(ch)
	r := <-reply
	return r.data, vtime.Max(r.vt, at), r.err
}

// FetchStream opens a stream from the peer (jar/file distribution).
func (e *Env) FetchStream(peer fabric.Addr, streamID string, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	reply := make(chan askReply, 1)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, at, ErrShutdown
	}
	if e.streamPending == nil {
		e.streamPending = make(map[string][]*pendingAsk)
	}
	e.streamPending[streamID] = append(e.streamPending[streamID], &pendingAsk{ch: ch, reply: reply})
	e.mu.Unlock()
	ch.Write(&StreamRequest{StreamID: streamID}, vt)
	e.checkChannelAlive(ch)
	r := <-reply
	return r.data, vtime.Max(r.vt, at), r.err
}

// Shutdown stops the environment: the server, all connections, all
// endpoints, and the event loops.
func (e *Env) Shutdown() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	eps := e.endpoints
	conns := e.conns
	pending := e.pending
	streams := e.streamPending
	batches := e.batches
	shutdownFns := e.onShutdown
	e.onShutdown = nil
	e.pending = make(map[int64]*pendingAsk)
	e.streamPending = nil
	e.batches = make(map[int64]*pendingBatch)
	e.serveQ = nil // stop streaming; the pump exits on its next turn
	for _, b := range batches {
		b.failRemaining(ErrShutdown)
	}
	e.mu.Unlock()

	for _, p := range pending {
		p.reply <- askReply{err: ErrShutdown}
	}
	for _, ws := range streams {
		for _, w := range ws {
			w.reply <- askReply{err: ErrShutdown}
		}
	}
	for _, b := range batches {
		close(b.done)
	}
	for _, fn := range shutdownFns {
		fn()
	}
	for _, ep := range eps {
		ep.close()
	}
	for _, c := range conns {
		c.ch.Close()
	}
	e.server.Close()
	e.group.Shutdown()
}
