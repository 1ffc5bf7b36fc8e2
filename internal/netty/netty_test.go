package netty

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// recorder collects inbound messages for assertions, as text: a frame dies
// with its traversal, so what a handler keeps is a copy of its bytes.
type recorder struct {
	mu   sync.Mutex
	msgs []string
	vts  []vtime.Stamp
	ch   chan struct{}
}

func newRecorder() *recorder { return &recorder{ch: make(chan struct{}, 1024)} }

func (r *recorder) ChannelRead(ctx *Context, msg any) {
	r.mu.Lock()
	r.msgs = append(r.msgs, text(msg))
	r.vts = append(r.vts, ctx.VT())
	r.mu.Unlock()
	r.ch <- struct{}{}
}

func (r *recorder) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-r.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
}

func (r *recorder) snapshot() ([]string, []vtime.Stamp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.msgs...), append([]vtime.Stamp(nil), r.vts...)
}

// text is what a test message reads as: a copy of the readable bytes of a
// frame (head, then body), or the string an earlier handler made of it.
func text(msg any) string {
	switch m := msg.(type) {
	case *bytebuf.Buf:
		return string(m.Readable())
	case *Frame:
		return string(m.Head.Readable()) + string(m.Body)
	}
	return msg.(string)
}

// tagger is an inbound handler that tags messages and forwards them as
// strings.
type tagger struct{ tag string }

func (h *tagger) ChannelRead(ctx *Context, msg any) {
	ctx.FireChannelRead(text(msg) + h.tag)
}

// outTagger is an outbound handler that tags string messages and forwards.
type outTagger struct{ tag string }

func (h *outTagger) Write(ctx *Context, msg any) {
	ctx.Write(msg.(string) + h.tag)
}

// sinkTransport records what reaches the pipeline head.
type sinkTransport struct {
	mu   sync.Mutex
	msgs []any
	cost vtime.Stamp
}

func (s *sinkTransport) WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp {
	// Real transports keep bytes, not the frame, which dies with the write's
	// context, nor a pooled head the writer releases after Write: copy the
	// head here too, and keep the body by reference as they do.
	switch m := msg.(type) {
	case *bytebuf.Buf:
		msg = bytebuf.Wrap(m.Bytes())
	case *Frame:
		msg = &Frame{Head: bytebuf.Wrap(m.Head.Bytes()), Body: m.Body}
	}
	s.mu.Lock()
	s.msgs = append(s.msgs, msg)
	s.mu.Unlock()
	return vt + s.cost
}
func (s *sinkTransport) Close() error { return nil }

func TestPipelineInboundOrder(t *testing.T) {
	ch := NewChannel()
	rec := newRecorder()
	ch.Pipeline().AddLast("a", &tagger{tag: "-A"})
	ch.Pipeline().AddLast("b", &tagger{tag: "-B"})
	ch.Pipeline().AddLast("rec", rec)
	ch.Pipeline().FireChannelRead([]byte("m"), nil, 7)
	msgs, vts := rec.snapshot()
	if len(msgs) != 1 || msgs[0] != "m-A-B" {
		t.Fatalf("msgs = %v", msgs)
	}
	if vts[0] != 7 {
		t.Fatalf("vt = %v", vts[0])
	}
}

func TestPipelineOutboundOrderReachesTransport(t *testing.T) {
	ch := NewChannel()
	sink := &sinkTransport{cost: 11}
	ch.SetTransport(sink)
	ch.Pipeline().AddLast("x", &outTagger{tag: "-X"})
	ch.Pipeline().AddLast("y", &outTagger{tag: "-Y"})
	free := ch.Write("w", 3)
	if len(sink.msgs) != 1 || sink.msgs[0] != "w-Y-X" {
		t.Fatalf("transport got %v", sink.msgs)
	}
	if free != 14 {
		t.Fatalf("cpu-free = %v, want 14", free)
	}
}

func TestPipelineDuplicateNamePanics(t *testing.T) {
	ch := NewChannel()
	ch.Pipeline().AddLast("h", &tagger{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddLast did not panic")
		}
	}()
	ch.Pipeline().AddLast("h", &tagger{})
}

func TestChannelAttributes(t *testing.T) {
	ch := NewChannel()
	if _, ok := ch.Attr("rank"); ok {
		t.Fatal("attr present on new channel")
	}
	ch.SetAttr("rank", 3)
	v, ok := ch.Attr("rank")
	if !ok || v.(int) != 3 {
		t.Fatalf("Attr = %v, %v", v, ok)
	}
}

func TestChannelIDsUnique(t *testing.T) {
	seen := map[ChannelID]bool{}
	for i := 0; i < 100; i++ {
		id := NewChannel().ID()
		if seen[id] {
			t.Fatalf("duplicate channel id %s", id)
		}
		seen[id] = true
	}
}

func newTestCluster(t *testing.T) (*fabric.Fabric, *EventLoopGroup) {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	f.AddNode("n0")
	f.AddNode("n1")
	g := NewEventLoopGroup(2, LoopConfig{})
	t.Cleanup(g.Shutdown)
	return f, g
}

func TestBootstrapEcho(t *testing.T) {
	f, g := newTestCluster(t)
	serverRec := newRecorder()

	// Server: echo every frame back.
	sb := &ServerBootstrap{
		Group: g,
		Initializer: func(ch *Channel) {
			ch.Pipeline().AddLast("dec", &FrameDecoder{})
			ch.Pipeline().AddLast("enc", &FrameEncoder{})
			ch.Pipeline().AddLast("echo", inboundFunc(func(ctx *Context, msg any) {
				// The frame dies with this call: echo it from inside, and
				// keep a copy of its bytes.
				serverRec.ChannelRead(ctx, msg)
				ctx.Channel().Write(msg, ctx.VT())
			}))
		},
	}
	srv, err := sb.Listen(f.Node("n1"), "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientRec := newRecorder()
	b := &Bootstrap{
		Group:    g,
		Protocol: fabric.TCP,
		Initializer: func(ch *Channel) {
			ch.Pipeline().AddLast("dec", &FrameDecoder{})
			ch.Pipeline().AddLast("enc", &FrameEncoder{})
			ch.Pipeline().AddLast("rec", clientRec)
		},
	}
	ch, ready, err := b.Connect(f.Node("n0"), srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ready <= 0 {
		t.Fatalf("handshake cost missing: ready=%v", ready)
	}

	payload := bytebuf.Wrap([]byte("ping"))
	ch.Write(payload, ready)
	clientRec.wait(t, 1)
	msgs, vts := clientRec.snapshot()
	if msgs[0] != "ping" {
		t.Fatalf("echo payload = %q", msgs[0])
	}
	if got, _ := serverRec.snapshot(); len(got) != 1 || got[0] != "ping" {
		t.Fatalf("server saw %q", got)
	}
	if vts[0] <= ready {
		t.Fatalf("echoed vt %v not after send time %v", vts[0], ready)
	}
}

// inboundFunc adapts a function to InboundHandler.
type inboundFunc func(ctx *Context, msg any)

func (f inboundFunc) ChannelRead(ctx *Context, msg any) { f(ctx, msg) }

func TestFrameCodecRoundTrip(t *testing.T) {
	ch := NewChannel()
	sink := &sinkTransport{}
	ch.SetTransport(sink)
	rec := newRecorder()
	ch.Pipeline().AddLast("dec", &FrameDecoder{})
	ch.Pipeline().AddLast("enc", &FrameEncoder{})
	ch.Pipeline().AddLast("rec", rec)

	ch.Write(bytebuf.Wrap([]byte("abcdef")), 0)
	framed := sink.msgs[0].(*bytebuf.Buf)
	if framed.ReadableBytes() != 10 {
		t.Fatalf("framed length = %d", framed.ReadableBytes())
	}
	// Feed the framed bytes back inbound.
	ch.Pipeline().FireChannelRead(framed.Bytes(), nil, 0)
	msgs, _ := rec.snapshot()
	if len(msgs) != 1 || msgs[0] != "abcdef" {
		t.Fatalf("decoded = %v", msgs)
	}
}

func TestFrameDecoderCorruptFrame(t *testing.T) {
	ch := NewChannel()
	var decodeErr error
	rec := newRecorder()
	ch.Pipeline().AddLast("dec", &FrameDecoder{OnError: func(err error) { decodeErr = err }})
	ch.Pipeline().AddLast("rec", rec)

	bad := bytebuf.New(0)
	bad.WriteUint32(99) // claims 99 bytes, provides 2
	bad.WriteBytes([]byte{1, 2})
	ch.Pipeline().FireChannelRead(bad.Bytes(), nil, 0)
	if decodeErr == nil {
		t.Fatal("corrupt frame not reported")
	}
	if msgs, _ := rec.snapshot(); len(msgs) != 0 {
		t.Fatalf("corrupt frame forwarded: %v", msgs)
	}
}

// TestEventLoopAuxPoll: the hook runs on every wake-up and never on an
// idle loop (the selector is event-driven, it does not spin).
func TestEventLoopAuxPoll(t *testing.T) {
	l := NewEventLoop(LoopConfig{})
	defer l.Shutdown()
	var polls atomic.Int64
	ran := make(chan struct{}, 1)
	l.SetAuxPoll(func() bool {
		polls.Add(1)
		select {
		case ran <- struct{}{}:
		default:
		}
		return false
	})
	awaitPoll := func(what string) {
		t.Helper()
		select {
		case <-ran:
		case <-time.After(2 * time.Second):
			t.Fatalf("aux poll did not run after %s", what)
		}
	}
	awaitPoll("SetAuxPoll")
	// Let the loop park, then watch it stay parked.
	time.Sleep(5 * time.Millisecond)
	idle := polls.Load()
	time.Sleep(20 * time.Millisecond)
	if got := polls.Load(); got != idle {
		t.Fatalf("idle loop polled: %d -> %d over 20ms", idle, got)
	}
	for i := 0; i < 3; i++ {
		before := polls.Load()
		l.Wakeup()
		awaitPoll("Wakeup")
		if got := polls.Load(); got <= before {
			t.Fatalf("wake-up %d: polls %d -> %d", i, before, got)
		}
	}
}

// TestEventLoopWakeupDuringScanIsKept: the lost-wake-up case, made
// deterministic. Work arrives, with its Wakeup, after the scan has looked
// for it and before the loop blocks; the token must survive to start another
// scan, which is why the loop takes it before scanning.
func TestEventLoopWakeupDuringScanIsKept(t *testing.T) {
	l := NewEventLoop(LoopConfig{})
	defer l.Shutdown()
	var queued atomic.Bool
	scanned := make(chan struct{})
	arrived := make(chan struct{})
	found := make(chan struct{})
	first := true
	l.SetAuxPoll(func() bool {
		if queued.CompareAndSwap(true, false) {
			close(found)
			return true
		}
		if first {
			first = false
			close(scanned) // looked, found nothing ...
			<-arrived      // ... and the work lands before the scan ends
		}
		return false
	})
	<-scanned
	queued.Store(true)
	l.Wakeup()
	close(arrived)
	select {
	case <-found:
	case <-time.After(2 * time.Second):
		t.Fatal("wake-up raised during a scan was lost: the loop parked on queued work")
	}
}

// TestRegisterClosedConnOnBusyLoop: a channel whose connection is already
// dead is drained and closed by a loop that is mid-iteration the moment
// Register lists it. By then ch.loop must be set (Close deregisters through
// it, and reads it while Register may still be running) and the channel must
// have had its activation, or it ends up listed forever or active after its
// close.
func TestRegisterClosedConnOnBusyLoop(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	a, b := f.AddNode("a"), f.AddNode("b")
	ln, err := b.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	l := NewEventLoop(LoopConfig{})
	defer l.Shutdown()
	// Keep the loop iterating without pause while channels are registered.
	l.SetAuxPoll(func() bool { return true })

	const n = 2000
	chans := make([]*Channel, n)
	for i := range chans {
		conn, _, err := a.Dial(ln.Addr(), fabric.TCP, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ln.Accept(); err != nil { // keep the backlog empty
			t.Fatal(err)
		}
		conn.Close()
		ch := NewChannel()
		ch.conn = conn
		ch.SetTransport(&sinkTransport{})
		chans[i] = ch
		l.Register(ch, 0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		left := len(l.channels)
		l.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dead channels still registered", left, n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, ch := range chans {
		if ch.active.Load() {
			t.Fatalf("channel %d is active after the loop closed it", i)
		}
	}
}

func TestChannelCloseFiresInactiveOnce(t *testing.T) {
	ch := NewChannel()
	ch.SetTransport(&sinkTransport{})
	var count int
	ch.Pipeline().AddLast("watch", inactiveCounter{&count})
	ch.markActive(0)
	ch.Close()
	ch.Close()
	if count != 1 {
		t.Fatalf("channelInactive fired %d times", count)
	}
}

type inactiveCounter struct{ n *int }

func (h inactiveCounter) ChannelInactive(ctx *Context) { *h.n++ }

func TestServerTracksChannels(t *testing.T) {
	f, g := newTestCluster(t)
	sb := &ServerBootstrap{Group: g}
	srv, err := sb.Listen(f.Node("n1"), "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := &Bootstrap{Group: g, Protocol: fabric.TCP}
	for i := 0; i < 3; i++ {
		if _, _, err := b.Connect(f.Node("n0"), srv.Addr(), 0); err != nil {
			t.Fatal(err)
		}
	}
	accepted := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.accepted)
	}
	deadline := time.Now().Add(2 * time.Second)
	for accepted() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("accepted %d channels, want 3", accepted())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReadEventCostCharged(t *testing.T) {
	f := fabric.New(fabric.NewZeroModel())
	f.AddNode("n0")
	f.AddNode("n1")
	g := NewEventLoopGroup(1, LoopConfig{ReadEventCost: 3 * time.Microsecond})
	defer g.Shutdown()
	rec := newRecorder()
	sb := &ServerBootstrap{Group: g, Initializer: func(ch *Channel) {
		ch.Pipeline().AddLast("rec", rec)
	}}
	srv, err := sb.Listen(f.Node("n1"), "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := &Bootstrap{Group: g, Protocol: fabric.TCP}
	ch, _, err := b.Connect(f.Node("n0"), srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ch.Write(bytebuf.Wrap([]byte("x")), 0)
	rec.wait(t, 1)
	_, vts := rec.snapshot()
	if want := vtime.Duration(3 * time.Microsecond); vts[0] != want {
		t.Fatalf("read vt = %v, want %v (zero fabric + read cost)", vts[0], want)
	}
}

func TestPipelineAddBefore(t *testing.T) {
	ch := NewChannel()
	p := ch.Pipeline()
	p.AddLast("a", &tagger{tag: "-A"})
	p.AddLast("c", &tagger{tag: "-C"})
	p.AddBefore("c", "b", &tagger{tag: "-B"})
	rec := newRecorder()
	p.AddLast("rec", rec)
	p.FireChannelRead([]byte("m"), nil, 0)
	msgs, _ := rec.snapshot()
	if msgs[0] != "m-A-B-C" {
		t.Fatalf("order = %v", msgs[0])
	}
	var names []string
	for _, e := range p.snapshot() {
		names = append(names, e.name)
	}
	if fmt.Sprint(names) != "[a b c rec]" {
		t.Fatalf("names = %v", names)
	}
}

func TestPipelineAddBeforeMissingAnchorPanics(t *testing.T) {
	ch := NewChannel()
	defer func() {
		if recover() == nil {
			t.Fatal("AddBefore with missing anchor did not panic")
		}
	}()
	ch.Pipeline().AddBefore("nope", "x", &tagger{})
}

// TestFrameCodecTwoPart: a Frame's body passes the length-field codec by
// reference in both directions; only the head is rewritten, and the length
// field covers both parts.
func TestFrameCodecTwoPart(t *testing.T) {
	ch := NewChannel()
	sink := &sinkTransport{}
	ch.SetTransport(sink)
	head, body := bytebuf.Wrap([]byte("hdr")), []byte("a large body")
	var decodeErr error
	var arrived []string
	ch.Pipeline().AddLast("dec", &FrameDecoder{OnError: func(err error) { decodeErr = err }})
	ch.Pipeline().AddLast("enc", &FrameEncoder{})
	ch.Pipeline().AddLast("rec", inboundFunc(func(ctx *Context, msg any) {
		// The frame is valid during this call only: read it here.
		f, ok := msg.(*Frame)
		if !ok || &f.Body[0] != &body[0] {
			t.Fatalf("a two-part frame arrived as %T, body aliased: %t", msg, ok && &f.Body[0] == &body[0])
		}
		arrived = append(arrived, string(f.Head.Readable()))
	}))

	ch.Write(&Frame{Head: head, Body: body}, 0)
	framed, ok := sink.msgs[0].(*Frame)
	if !ok {
		t.Fatalf("encoder emitted %T for a two-part frame", sink.msgs[0])
	}
	if n, _ := framed.Head.PeekUint32(); int(n) != 3+len(body) || framed.Head.ReadableBytes() != 4+3 {
		t.Fatalf("length field %d over a %d-byte head", n, framed.Head.ReadableBytes())
	}
	if &framed.Body[0] != &body[0] {
		t.Fatal("encoder copied the body")
	}
	if string(framed.Head.Readable()[4:]) != "hdr" {
		t.Fatalf("framed head %q", framed.Head.Readable())
	}

	// Feed the two wire parts back inbound, as an event loop does.
	ch.Pipeline().FireChannelRead(framed.Head.Bytes(), framed.Body, 0)
	if len(arrived) != 1 || arrived[0] != "hdr" {
		t.Fatalf("decoded heads %q", arrived)
	}

	// A length field that disagrees with head + body drops the frame.
	ch.Pipeline().FireChannelRead(framed.Head.Bytes(), body[:5], 0)
	if decodeErr == nil || len(arrived) != 1 {
		t.Fatalf("short body: err=%v, %d messages forwarded", decodeErr, len(arrived))
	}
}
