package core

import (
	"sync"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// Design selects which MPI4Spark variant an environment runs.
type Design int

const (
	// DesignBasic is MPI4Spark-Basic (§IV-D): all frames over MPI, selector
	// polls with MPI_Iprobe.
	DesignBasic Design = iota
	// DesignOptimized is MPI4Spark-Optimized (§IV-E): shuffle bodies over
	// MPI, everything else on the socket.
	DesignOptimized
)

// String names the design.
func (d Design) String() string {
	if d == DesignBasic {
		return "MPI4Spark-Basic"
	}
	return "MPI4Spark-Optimized"
}

// handshakeMagic is the first byte of a connection-establishment frame.
const handshakeMagic byte = 0xFF

// mpiChannel is the per-channel MPI state created by the handshake.
type mpiChannel struct {
	ch *netty.Channel

	mu       sync.Mutex
	ready    bool
	route    route
	sendTag  int
	recvTag  int
	pending  []pendingWrite
	isClient bool
}

type pendingWrite struct {
	head, body []byte
	vt         vtime.Stamp
}

func (mc *mpiChannel) snapshotRoute() (route, int, int, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.route, mc.sendTag, mc.recvTag, mc.ready
}

// EnvState is the per-environment MPI4Spark runtime: the process identity,
// the design in use, and the set of MPI-mapped channels the Basic poller
// walks. It implements rpc.PipelineHooks.
type EnvState struct {
	id     *Identity
	design Design

	mu sync.Mutex
	// chans is copy-on-write (channelState appends to a fresh slice), so
	// Poll walks the current one without copying it.
	chans []*mpiChannel

	// pollEngine serializes the Basic design's message reception: a single
	// selector thread runs the non-blocking select + Iprobe loop, so every
	// inbound frame pays the poll handling cost on one shared occupancy —
	// the paper's CPU-starvation bottleneck, seen from the network side.
	// It is a work-conserving Resource rather than a monotone clock so a
	// late-stamped frame polled early (real scheduler order, not virtual
	// order) cannot drag every later delivery past its own virtual time.
	pollEngine vtime.Resource

	// polls counts the selector wake-ups that ran Poll: one per MPI arrival,
	// socket event or loop task, none while the environment is idle
	// (diagnostics/ablation).
	polls int64
}

// pollRecvCost is the per-frame cost charged on the Basic design's polling
// selector (Iprobe scans across channels plus the blocking receive). It is
// deliberately small: the dominant Basic-design penalty is compute
// starvation (BasicComputeInflation in the launcher); this constant only
// serializes reception through the single polling selector under bursts.
const pollRecvCost = 5 * time.Microsecond

// NewEnvState builds the runtime for one environment.
func NewEnvState(id *Identity, design Design) *EnvState {
	return &EnvState{id: id, design: design}
}

// InstallClient implements rpc.PipelineHooks.
func (st *EnvState) InstallClient(ch *netty.Channel, env *rpc.Env) {
	st.install(ch, true)
}

// InstallServer implements rpc.PipelineHooks.
func (st *EnvState) InstallServer(ch *netty.Channel, env *rpc.Env) {
	st.install(ch, false)
}

func (st *EnvState) install(ch *netty.Channel, client bool) {
	mc := st.channelState(ch)
	mc.isClient = client
	ch.Pipeline().AddBefore("messageDecoder", "mpiHandshake", &handshakeHandler{st: st, mc: mc})
	if st.design == DesignOptimized {
		ch.Pipeline().AddLast("mpiOptOut", &optOutbound{mc: mc})
		ch.Pipeline().AddLast("mpiOptIn", &optInbound{mc: mc})
	}
}

// channelState returns (creating on demand) the channel's MPI state.
func (st *EnvState) channelState(ch *netty.Channel) *mpiChannel {
	if v, ok := ch.Attr(attrRoute); ok {
		return v.(*mpiChannel)
	}
	mc := &mpiChannel{ch: ch}
	ch.SetAttr(attrRoute, mc)
	st.mu.Lock()
	st.chans = append(st.chans[:len(st.chans):len(st.chans)], mc)
	st.mu.Unlock()
	return mc
}

// markReady finalizes a channel's rank mapping and flushes queued writes.
func (st *EnvState) markReady(mc *mpiChannel, peerKind byte, peerRank, sendTag, recvTag int, vt vtime.Stamp) error {
	r, err := st.id.resolve(peerKind, peerRank)
	if err != nil {
		return err
	}
	mc.mu.Lock()
	mc.route = r
	mc.sendTag = sendTag
	mc.recvTag = recvTag
	mc.ready = true
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	for _, w := range pending {
		r.h.IsendGather(r.rank, sendTag, w.head, w.body, vtime.Max(w.vt, vt))
	}
	return nil
}

// Poll is the MPI4Spark-Basic selector step: one MPI_Iprobe per mapped
// channel; on a hit, the frame is received and fired through the pipeline.
// It reports whether any work was done. Attach it to the environment's
// event loops with AttachPolling.
func (st *EnvState) Poll() bool {
	st.mu.Lock()
	st.polls++
	chans := st.chans
	st.mu.Unlock()

	did := false
	for _, mc := range chans {
		r, _, recvTag, ready := mc.snapshotRoute()
		if !ready || mc.ch.Conn() == nil || mc.ch.Conn().Closed() {
			continue
		}
		for i := 0; i < 16; i++ {
			ok, _ := r.h.Iprobe(r.rank, recvTag, 0)
			if !ok {
				break
			}
			head, body, status := r.h.RecvGather(r.rank, recvTag, 0)
			did = true
			_, vt := st.pollEngine.Occupy(status.VT, pollRecvCost)
			mc.ch.Pipeline().FireChannelRead(head, body, vt)
		}
	}
	return did
}

// AttachPolling installs the Iprobe poll on every event loop of the
// environment (Basic design) and has the process's MPI engine wake those
// loops when a message is queued for it: the selector parks between
// arrivals in host time, while every scan it makes costs what it did in
// virtual time.
func (st *EnvState) AttachPolling(env *rpc.Env) {
	loops := env.Group().Loops()
	for _, l := range loops {
		l.SetAuxPoll(st.Poll)
	}
	st.id.World.NotifyArrival(func() {
		for _, l := range loops {
			l.Wakeup()
		}
	})
}

// BasicTransportFactory returns the netty transport factory for the Basic
// design: frames queue until the handshake resolves the peer rank, then
// every frame is an MPI message; the socket carries only establishment.
func (st *EnvState) BasicTransportFactory() netty.TransportFactory {
	return func(ch *netty.Channel, conn *fabric.Conn) netty.Transport {
		return &basicTransport{st: st, mc: st.channelState(ch), conn: conn}
	}
}

// basicTransport sends whole frames as MPI point-to-point messages, head
// and body gathered into one message by reference.
type basicTransport struct {
	st   *EnvState
	mc   *mpiChannel
	conn *fabric.Conn
}

// WriteMsg implements netty.Transport.
func (t *basicTransport) WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp {
	frame, body := netty.Parts(msg)
	head := frame.Readable()
	mc := t.mc
	mc.mu.Lock()
	if !mc.ready {
		mc.pending = append(mc.pending, pendingWrite{head: head, body: body, vt: vt})
		mc.mu.Unlock()
		return vt
	}
	r, tag := mc.route, mc.sendTag
	mc.mu.Unlock()
	// A dead establishment socket means the peer node failed (FailNode
	// closes it): drop the frame like a broken TCP connection would,
	// instead of parking it in the MPI queues of a process whose selector
	// no longer polls this channel.
	if t.conn.Closed() {
		return vt
	}
	// Isend without waiting: the MPI progress engine owns rendezvous
	// completion, so a blocked peer selector cannot deadlock two servers
	// writing large frames to each other.
	r.h.IsendGather(r.rank, tag, head, body, vt)
	return vt
}

// Close implements netty.Transport.
func (t *basicTransport) Close() error { return t.conn.Close() }

// handshakeHandler performs the §VI-B connection-establishment exchange:
// the client sends (kind, rank, tags) over the socket as its first frame;
// the server records the mapping and replies with its own identity.
type handshakeHandler struct {
	st *EnvState
	mc *mpiChannel
}

// ChannelActive sends the client side's handshake.
func (h *handshakeHandler) ChannelActive(ctx *netty.Context) {
	if !h.mc.isClient {
		return
	}
	sendTag, recvTag := mpi.AllocTag(), mpi.AllocTag()
	h.mc.mu.Lock()
	h.mc.sendTag, h.mc.recvTag = sendTag, recvTag
	h.mc.mu.Unlock()
	h.writeHandshake(ctx.Channel(), sendTag, recvTag, ctx.VT())
}

// writeHandshake ships an establishment frame directly over the socket,
// bypassing the MPI data path (both designs keep establishment on Netty's
// Java sockets).
func (h *handshakeHandler) writeHandshake(ch *netty.Channel, sendTag, recvTag int, vt vtime.Stamp) {
	body := bytebuf.New(32)
	body.WriteByte(handshakeMagic)
	body.WriteByte(h.st.id.Kind)
	body.WriteUint32(uint32(h.st.id.Rank()))
	body.WriteUint64(uint64(sendTag))
	body.WriteUint64(uint64(recvTag))
	framed := bytebuf.New(4 + body.ReadableBytes())
	framed.WriteUint32(uint32(body.ReadableBytes()))
	framed.WriteBytes(body.Readable())
	if conn := ch.Conn(); conn != nil {
		conn.Send(framed.Readable(), vt)
	}
}

// ChannelRead consumes handshake frames and passes everything else on.
func (h *handshakeHandler) ChannelRead(ctx *netty.Context, msg any) {
	buf, ok := msg.(*bytebuf.Buf)
	if !ok {
		ctx.FireChannelRead(msg)
		return
	}
	first, err := buf.PeekUint32()
	if err != nil || first>>24 != uint32(handshakeMagic) {
		ctx.FireChannelRead(msg)
		return
	}
	// Parse: magic, kind, rank, sendTag, recvTag.
	if err := buf.Skip(1); err != nil {
		return
	}
	kind, _ := buf.ReadByte()
	rank32, _ := buf.ReadUint32()
	peerSend, _ := buf.ReadUint64()
	peerRecv, _ := buf.ReadUint64()

	if h.mc.isClient {
		// Server's reply: peer identity only; tags were ours already.
		h.mc.mu.Lock()
		sendTag, recvTag := h.mc.sendTag, h.mc.recvTag
		h.mc.mu.Unlock()
		_ = h.st.markReady(h.mc, kind, int(rank32), sendTag, recvTag, ctx.VT())
		return
	}
	// Server: adopt the client's tags mirrored, resolve, and reply.
	if err := h.st.markReady(h.mc, kind, int(rank32), int(peerRecv), int(peerSend), ctx.VT()); err != nil {
		return
	}
	h.writeHandshake(ctx.Channel(), int(peerRecv), int(peerSend), ctx.VT())
}

// pieced is the Optimized design's body policy, and the only place it knows
// one body-carrying message from another: whether the body goes out after
// its header as eager-sized pieces on one tag, or ahead of it as one MPI
// message.
func pieced(m rpc.BodyMessage) bool {
	switch m.(type) {
	case *rpc.CollectiveChunk, *rpc.PushBlockRequest:
		// Header first, so the tiny socket frame claims the NIC before the
		// body occupies it and its latency hides behind the transfer; then
		// the body in eager-sized pieces, which pipeline at wire bandwidth
		// with no RTS/CTS stall above the eager threshold. MPI's
		// non-overtaking order lets the receiver reassemble them by issuing
		// the same number of receives.
		return true
	default:
		// Fetch replies (ChunkFetchSuccess) go body first as one eager or
		// rendezvous message, the header following on the socket to trigger
		// the matching MPI_Recv (§IV-E, Fig. 6). This is the shuffle read
		// the paper measures; sending it pieced as well would move MPI-Opt's
		// modelled time, which makes it an experiment and not a cleanup.
		return false
	}
}

// optOutbound diverts the body of every MessageWithHeader to MPI, leaving
// the header on the socket — the Optimized design's split (Fig. 6). Control
// messages, which are no rpc.BodyMessage, stay on the socket whole, and so
// does a message with nothing to divert: a zero-length body is header-only.
type optOutbound struct {
	mc *mpiChannel
}

// Write implements netty.OutboundHandler.
func (h *optOutbound) Write(ctx *netty.Context, msg any) {
	r, _, _, ready := h.mc.snapshotRoute()
	m, ok := msg.(rpc.BodyMessage)
	if !ready || !ok || m.Ref().BodyViaMPI || len(m.Ref().Body) == 0 {
		ctx.Write(msg)
		return
	}
	// In place: a written message belongs to its traversal (rpc.BodyMessage).
	ref := m.Ref()
	body, tag := ref.Body, mpi.AllocTag()
	*ref = rpc.BodyRef{BodyViaMPI: true, BodySize: len(body), BodyTag: tag}
	if !pieced(m) {
		r.h.Isend(r.rank, tag, body, ctx.VT())
		ctx.Write(m)
		return
	}
	vt := ctx.VT() // before the header goes out: ctx.Write advances it
	ctx.Write(m)
	thr := r.h.EagerThreshold()
	n, _, _ := bytebuf.Carve(len(body), thr, 0)
	for i := 0; i < n; i++ {
		_, lo, hi := bytebuf.Carve(len(body), thr, i)
		vt = r.h.Isend(r.rank, tag, body[lo:hi], vt).Wait(vt)
	}
}

// optInbound parses headers and triggers the matching MPI_Recv for bodies
// shipped over MPI (the paper's header-triggered receive).
type optInbound struct {
	mc *mpiChannel
}

// ChannelRead implements netty.InboundHandler.
func (h *optInbound) ChannelRead(ctx *netty.Context, msg any) {
	r, _, _, ready := h.mc.snapshotRoute()
	m, ok := msg.(rpc.BodyMessage)
	if !ready || !ok || !m.Ref().BodyViaMPI {
		ctx.FireChannelRead(msg)
		return
	}
	size, tag := m.Ref().BodySize, m.Ref().BodyTag
	pieces := 1
	if pieced(m) {
		pieces, _, _ = bytebuf.Carve(size, r.h.EagerThreshold(), 0)
	}
	// A body that arrives as one message is handed on as received, capacity
	// and all, so a fetch reply's reassembly can adopt the next chunk behind
	// it. Pieces arrive in the order they were sent, as consecutive windows
	// of the sender's body, and the reassembly adopts them.
	data, status := r.h.Recv(r.rank, tag, ctx.VT())
	vt := status.VT
	if pieces > 1 {
		var body bytebuf.Reassembly
		body.Add(data, uint64(size))
		for i := 1; i < pieces; i++ {
			piece, st := r.h.Recv(r.rank, tag, ctx.VT())
			body.Add(piece, uint64(size))
			vt = vtime.Max(vt, st.VT)
		}
		data = body.Bytes()
	}
	ctx.SetVT(vtime.Max(ctx.VT(), vt))
	// In place: the message was decoded for this traversal and is nobody else's.
	*m.Ref() = rpc.BodyRef{Body: data, BodySize: len(data)}
	ctx.FireChannelRead(m)
}
