package rpc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/vtime"
)

func TestMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&RpcRequest{ReqID: 42, Endpoint: "Master", From: "worker-1", Payload: []byte("register")},
		&RpcResponse{ReqID: 42, Payload: []byte("ok")},
		&RpcFailure{ReqID: 7, Error: "boom"},
		&OneWayMessage{Endpoint: "Executor", From: "driver", Payload: []byte("launch")},
		&ChunkFetchRequest{FetchID: 9, ChunkBytes: 1 << 20, BlockIDs: []string{"shuffle_0_1_2"}},
		&ChunkFetchRequest{FetchID: 10, BlockIDs: []string{"shuffle_0_1_2", "shuffleMergedRange_0_2_4_8", ""}},
		&ChunkFetchSuccess{FetchID: 9, Index: 2, Total: 20, Offset: 8, BodyRef: BodyRef{Body: []byte("blockdata"), BodySize: 9}},
		&ChunkFetchSuccess{FetchID: 9, Index: 1, Missing: true, BodyRef: BodyRef{Body: []byte{}}},
		&ChunkFetchSuccess{FetchID: 10, Total: 1 << 20, Offset: 4096, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 4096, BodyTag: 77}},
		&CollectiveChunk{OpID: 77, Tag: 1 << 20, Src: 2, Total: 16, Offset: 4, BodyRef: BodyRef{Body: []byte("collective"), BodySize: 10}},
		&CollectiveChunk{OpID: 78, Tag: 3, Src: 1, Total: 1 << 22, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 1 << 20, BodyTag: 5}},
		&PushBlockRequest{PushID: 11, ShuffleID: 1, MapID: 2, ReduceID: 3, Sum: 0xdeadbeef, BodyRef: BodyRef{Body: []byte("pushed"), BodySize: 6}},
		&PushBlockRequest{PushID: 12, ShuffleID: 1, MapID: 2, ReduceID: 3, Sum: 7, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 1 << 16, BodyTag: 9}},
	}
	for _, m := range msgs {
		buf := EncodeToBuf(m)
		got, err := decodeFrame(buf, nil, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type(), err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("type mismatch: %v vs %v", got.Type(), m.Type())
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", m) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := decodeFrame(bytebuf.New(0), nil, nil); err == nil {
		t.Fatal("decode of empty frame succeeded")
	}
	bad := bytebuf.New(0)
	bad.WriteByte(200)
	if _, err := decodeFrame(bad, nil, nil); err == nil {
		t.Fatal("decode of unknown type succeeded")
	}
	trunc := bytebuf.New(0)
	trunc.WriteByte(byte(TypeRpcRequest))
	trunc.WriteUint32(1) // garbage
	if _, err := decodeFrame(trunc, nil, nil); err == nil {
		t.Fatal("decode of truncated request succeeded")
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	f := func(id int64, ep, from string, payload []byte) bool {
		m := &RpcRequest{ReqID: id, Endpoint: ep, From: from, Payload: payload}
		enc := EncodeToBuf(m)
		// WireSize is EncodeToBuf's size hint; it must be within the
		// length-field overhead of the real encoding.
		diff := enc.ReadableBytes() - m.WireSize()
		return diff >= 0 && diff <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func twoEnvs(t *testing.T) (*Env, *Env) {
	t.Helper()
	return twoEnvsServing(t, DefaultEnvConfig())
}

// twoEnvsServing is twoEnvs with the second (serving) env built from cfg.
func twoEnvsServing(t *testing.T, cfg EnvConfig) (*Env, *Env) {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	n0, n1 := f.AddNode("n0"), f.AddNode("n1")
	a, err := NewEnv("envA", n0, "rpc", DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv("envB", n1, "rpc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Shutdown(); b.Shutdown() })
	return a, b
}

func TestAskReply(t *testing.T) {
	a, b := twoEnvs(t)
	err := b.RegisterEndpoint("Echo", func(c *Call) {
		c.Reply(append([]byte("echo:"), c.Payload...), c.VT.Add(5*time.Microsecond))
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, vt, err := a.Ask(b.Addr(), "Echo", []byte("ping"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping" {
		t.Fatalf("resp = %q", resp)
	}
	if vt <= 0 {
		t.Fatalf("vt = %v", vt)
	}
}

func TestAskUnknownEndpointTimesOutGracefully(t *testing.T) {
	// An unknown endpoint silently drops in Spark; our Ask would block, so
	// this test asserts the behaviour via a side channel: the reply channel
	// stays empty. We use Send (one-way), which must not error.
	a, b := twoEnvs(t)
	if _, err := a.Send(b.Addr(), "nope", []byte("x"), 0); err != nil {
		t.Fatalf("Send to unknown endpoint: %v", err)
	}
}

func TestOneWayDelivery(t *testing.T) {
	a, b := twoEnvs(t)
	got := make(chan Call, 1)
	if err := b.RegisterEndpoint("Sink", func(c *Call) { got <- *c }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(b.Addr(), "Sink", []byte("fire-and-forget"), 100); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-got:
		if string(c.Payload) != "fire-and-forget" {
			t.Fatalf("payload = %q", c.Payload)
		}
		if c.ch != nil {
			t.Fatal("call should be one-way")
		}
		if c.From != "envA" {
			t.Fatalf("from = %q", c.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-way message not delivered")
	}
}

func TestEndpointSerializedDispatch(t *testing.T) {
	a, b := twoEnvs(t)
	var mu sync.Mutex
	var order []int
	var active int
	if err := b.RegisterEndpoint("Serial", func(c *Call) {
		mu.Lock()
		active++
		if active > 1 {
			t.Error("concurrent dispatch on one endpoint")
		}
		order = append(order, int(c.Payload[0]))
		active--
		mu.Unlock()
		c.Reply(nil, c.VT)
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := a.Ask(b.Addr(), "Serial", []byte{byte(i)}, 0); err != nil {
				t.Errorf("ask %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if len(order) != 10 {
		t.Fatalf("handled %d calls", len(order))
	}
}

func TestChunkFetch(t *testing.T) {
	a, b := twoEnvs(t)
	blocks := map[string][]byte{
		"shuffle_0_0_1": bytes.Repeat([]byte{7}, 100_000),
	}
	b.RegisterChunkResolver(func(id string) ([]byte, bool) {
		d, ok := blocks[id]
		return d, ok
	})
	// A single block is a batch of one.
	fetch := func(id string) ([]byte, vtime.Stamp, error) {
		rs, vt, err := a.FetchBlockBatch(b.Addr(), []string{id}, 0, 0)
		if err != nil {
			return nil, vt, err
		}
		return rs[0].Data, rs[0].VT, rs[0].Err
	}
	data, vt, err := fetch("shuffle_0_0_1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, blocks["shuffle_0_0_1"]) {
		t.Fatal("chunk data corrupted")
	}
	if vt <= 0 {
		t.Fatalf("vt = %v", vt)
	}
	// Missing block is an error, not a hang.
	if _, _, err := fetch("shuffle_9_9_9"); err == nil {
		t.Fatal("missing block fetch succeeded")
	}
	if !strings.Contains(fmt.Sprint(err), "") {
		t.Fatal("unreachable")
	}
}

// rewriteChunks is an outbound handler at the tail of a serving channel's
// pipeline that edits every ChunkFetchSuccess on its way out: a peer that
// lies in its chunk headers.
type rewriteChunks func(m *ChunkFetchSuccess)

func (h rewriteChunks) Write(ctx *netty.Context, msg any) {
	if m, ok := msg.(*ChunkFetchSuccess); ok {
		c := *m
		h(&c)
		msg = &c
	}
	ctx.Write(msg)
}

// InstallClient and InstallServer make rewriteChunks the PipelineHooks of a
// serving env: it rewrites the chunks that env serves.
func (h rewriteChunks) InstallClient(*netty.Channel, *Env) {}
func (h rewriteChunks) InstallServer(ch *netty.Channel, _ *Env) {
	ch.Pipeline().AddLast("rewriteChunks", h)
}

// TestFetchRejectsMalformedChunks: Total and Offset of a chunk are wire data.
// A chunk that overruns the block it announces, or announces another size
// than the block's first chunk did, fails that block with an error; its
// batch sibling still lands, nothing panics and the environment still shuts
// down (the reassembly ran under Env.mu).
func TestFetchRejectsMalformedChunks(t *testing.T) {
	cases := map[string]rewriteChunks{
		"chunk overruns its announced total": func(m *ChunkFetchSuccess) {
			if m.Index == 0 && m.Offset == 0 {
				m.Total = 10
			}
		},
		"offset past the total": func(m *ChunkFetchSuccess) {
			if m.Index == 0 && m.Offset == 0 {
				m.Offset, m.Total = 1<<63, 100
			}
		},
		"total changes after the first chunk": func(m *ChunkFetchSuccess) {
			if m.Index == 0 && m.Offset > 0 {
				// Not a window of the served block either, so the reassembly
				// would size a buffer of its own from the announced total.
				m.Total, m.Body = 1<<62, bytes.Clone(m.Body)
			}
		},
	}
	for name, rewrite := range cases {
		t.Run(name, func(t *testing.T) {
			a, b := twoEnvsServing(t, EnvConfig{Hooks: rewrite})
			blocks := map[string][]byte{
				"bad":  bytes.Repeat([]byte{1}, 200),
				"good": bytes.Repeat([]byte{2}, 150),
			}
			b.RegisterChunkResolver(func(id string) ([]byte, bool) {
				d, ok := blocks[id]
				return d, ok
			})
			rs, _, err := a.FetchBlockBatch(b.Addr(), []string{"bad", "good"}, 100, 0)
			if err != nil {
				t.Fatalf("request-level error %v, want a per-block one", err)
			}
			if rs[0].Err == nil || rs[0].Data != nil {
				t.Fatalf("malformed block landed: %d bytes, err %v", len(rs[0].Data), rs[0].Err)
			}
			if rs[1].Err != nil || !bytes.Equal(rs[1].Data, blocks["good"]) {
				t.Fatalf("sibling did not land: %d bytes, err %v", len(rs[1].Data), rs[1].Err)
			}
		})
	}
}

func TestConnectionReuse(t *testing.T) {
	a, b := twoEnvs(t)
	if err := b.RegisterEndpoint("E", func(c *Call) { c.Reply(nil, c.VT) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := a.Ask(b.Addr(), "E", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	a.mu.Lock()
	n := len(a.conns)
	a.mu.Unlock()
	if n != 1 {
		t.Fatalf("connections = %d, want 1 (reuse)", n)
	}
}

// dialedChannels records every channel an env dials.
type dialedChannels struct {
	mu  sync.Mutex
	chs []*netty.Channel
}

func (d *dialedChannels) InstallClient(ch *netty.Channel, _ *Env) {
	d.mu.Lock()
	d.chs = append(d.chs, ch)
	d.mu.Unlock()
}

func (d *dialedChannels) InstallServer(*netty.Channel, *Env) {}

// TestConcurrentFirstSendsDialOnce: eight first sends to one peer at once
// share one dial and its ready stamp, and Shutdown closes every channel the
// env opened (a second, losing dial would be neither shared nor closed).
func TestConcurrentFirstSendsDialOnce(t *testing.T) {
	const senders = 8
	f := fabric.New(fabric.NewIBHDRModel())
	dialed := &dialedChannels{}
	nA := f.AddNode("n0")
	a, err := NewEnv("envA", nA, "rpc", EnvConfig{Hooks: dialed})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv("envB", f.AddNode("n1"), "rpc", DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	var got sync.WaitGroup
	got.Add(senders)
	if err := b.RegisterEndpoint("Sink", func(*Call) { got.Done() }); err != nil {
		t.Fatal(err)
	}
	var sent sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < senders; i++ {
		sent.Add(1)
		go func() {
			defer sent.Done()
			<-start
			if _, err := a.Send(b.Addr(), "Sink", []byte("x"), 0); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	sent.Wait()
	got.Wait()
	if d := nA.Dials(); d != 1 {
		t.Fatalf("%d concurrent first sends made %d dials, want 1", senders, d)
	}
	a.Shutdown()
	dialed.mu.Lock()
	defer dialed.mu.Unlock()
	if len(dialed.chs) != 1 {
		t.Fatalf("env dialed %d channels, want 1", len(dialed.chs))
	}
	for _, ch := range dialed.chs {
		if !ch.Conn().Closed() {
			t.Fatalf("channel %s open after Shutdown", ch.ID())
		}
	}
}

// TestBoundRouteCarriesSends: a handler binds the channel a peer's ask
// arrived on as the route to that peer's address. Sends to the address
// then ride it with no dial; once the channel dies the next send dials.
func TestBoundRouteCarriesSends(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	nA, nB := f.AddNode("n0"), f.AddNode("n1")
	a, err := NewEnv("envA", nA, "rpc", DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv("envB", nB, "rpc", DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Shutdown(); b.Shutdown() })
	var boundAt vtime.Stamp
	if err := b.RegisterEndpoint("Register", func(c *Call) {
		boundAt = c.VT
		if err := b.BindRoute(c, a.Addr()); err != nil {
			t.Error(err)
		}
		c.Reply(nil, c.VT)
	}); err != nil {
		t.Fatal(err)
	}
	got := make(chan Call, 2)
	if err := a.RegisterEndpoint("Sink", func(c *Call) { got <- *c }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Ask(b.Addr(), "Register", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Send(a.Addr(), "Sink", []byte("over the bound route"), 0); err != nil {
		t.Fatal(err)
	}
	if c := <-got; string(c.Payload) != "over the bound route" || c.VT < boundAt {
		t.Fatalf("got %q at %v, route bound at %v", c.Payload, c.VT, boundAt)
	}
	if d := nB.Dials(); d != 0 {
		t.Fatalf("env with a bound route dialed %d times, want 0", d)
	}

	// The route dies with its connection: the next send dials afresh.
	a.mu.Lock()
	registered := a.conns[b.Addr()].ch
	a.mu.Unlock()
	registered.Close()
	if _, err := b.Send(a.Addr(), "Sink", []byte("redialed"), 0); err != nil {
		t.Fatal(err)
	}
	if c := <-got; string(c.Payload) != "redialed" {
		t.Fatalf("got %q", c.Payload)
	}
	if d := nB.Dials(); d != 1 {
		t.Fatalf("send over a dead bound route dialed %d times, want 1", d)
	}

	// A one-way message carries no channel to bind: BindRoute refuses it.
	bindErr := make(chan error, 1)
	if err := b.RegisterEndpoint("RegisterOneWay", func(c *Call) { bindErr <- b.BindRoute(c, a.Addr()) }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(b.Addr(), "RegisterOneWay", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := <-bindErr; err == nil {
		t.Fatal("BindRoute bound a one-way call")
	}
}

func TestBidirectionalEnvs(t *testing.T) {
	a, b := twoEnvs(t)
	if err := a.RegisterEndpoint("PingA", func(c *Call) { c.Reply([]byte("fromA"), c.VT) }); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterEndpoint("PingB", func(c *Call) { c.Reply([]byte("fromB"), c.VT) }); err != nil {
		t.Fatal(err)
	}
	r1, _, err := a.Ask(b.Addr(), "PingB", nil, 0)
	if err != nil || string(r1) != "fromB" {
		t.Fatalf("a->b: %q %v", r1, err)
	}
	r2, _, err := b.Ask(a.Addr(), "PingA", nil, 0)
	if err != nil || string(r2) != "fromA" {
		t.Fatalf("b->a: %q %v", r2, err)
	}
}

func TestVirtualTimeAccumulatesThroughRPC(t *testing.T) {
	a, b := twoEnvs(t)
	if err := b.RegisterEndpoint("Clocked", func(c *Call) {
		c.Reply(nil, c.VT.Add(time.Millisecond)) // server-side work
	}); err != nil {
		t.Fatal(err)
	}
	_, vt1, err := a.Ask(b.Addr(), "Clocked", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, vt2, err := a.Ask(b.Addr(), "Clocked", nil, vt1)
	if err != nil {
		t.Fatal(err)
	}
	if vt2 <= vt1 || vt1 < vtime.Duration(time.Millisecond) {
		t.Fatalf("vts = %v, %v", vt1, vt2)
	}
}

func TestRegisterEndpointDuplicate(t *testing.T) {
	a, _ := twoEnvs(t)
	if err := a.RegisterEndpoint("X", func(c *Call) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterEndpoint("X", func(c *Call) {}); err == nil {
		t.Fatal("duplicate endpoint registered")
	}
}

func TestShutdownUnblocksPendingAsk(t *testing.T) {
	a, b := twoEnvs(t)
	if err := b.RegisterEndpoint("Blackhole", func(c *Call) { /* never replies */ }); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := a.Ask(b.Addr(), "Blackhole", nil, 0)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Shutdown()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending ask resolved without error after shutdown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending ask not unblocked by shutdown")
	}
}

// gateFirstChunk is the PipelineHooks of a serving env: an outbound handler
// that counts the ChunkFetchSuccess messages the env writes and holds the
// first one until released.
type gateFirstChunk struct {
	written atomic.Int64
	first   chan struct{}
	release chan struct{}
}

func (g *gateFirstChunk) Write(ctx *netty.Context, msg any) {
	if _, ok := msg.(*ChunkFetchSuccess); ok && g.written.Add(1) == 1 {
		close(g.first)
		<-g.release
	}
	ctx.Write(msg)
}

func (g *gateFirstChunk) InstallClient(*netty.Channel, *Env) {}
func (g *gateFirstChunk) InstallServer(ch *netty.Channel, _ *Env) {
	ch.Pipeline().AddLast("gate", g)
}

// TestShutdownStopsServePump: Shutdown stops a batch mid-stream. The serving
// env shuts down while the first of a block's hundred chunks is being
// written; at most one more chunk follows it, the serve pump exits instead
// of streaming the rest into closed channels, and Shutdown returns only once
// it has.
func TestShutdownStopsServePump(t *testing.T) {
	const chunks, chunkBytes = 100, 1024
	gate := &gateFirstChunk{first: make(chan struct{}), release: make(chan struct{})}
	a, b := twoEnvsServing(t, EnvConfig{Hooks: gate})
	b.RegisterChunkResolver(func(string) ([]byte, bool) { return make([]byte, chunks*chunkBytes), true })
	// The fetch fails once b is gone; a's cleanup unblocks it if nothing else does.
	go a.FetchBlockBatch(b.Addr(), []string{"big"}, chunkBytes, 0)
	select {
	case <-gate.first:
	case <-time.After(5 * time.Second):
		t.Fatal("no chunk was served")
	}
	done := make(chan struct{})
	go func() {
		b.Shutdown()
		close(done)
	}()
	for closed := false; !closed; {
		b.mu.Lock()
		closed = b.closed
		b.mu.Unlock()
		runtime.Gosched()
	}
	close(gate.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown still waiting 5 s after the chunk under way was written")
	}
	if b.pumping {
		t.Fatal("serve pump still running after Shutdown returned")
	}
	if n := gate.written.Load(); n > 2 {
		t.Fatalf("%d chunks written after the one under way at Shutdown, want at most 1", n-1)
	}
}

func TestAskAfterShutdown(t *testing.T) {
	a, b := twoEnvs(t)
	a.Shutdown()
	if _, _, err := a.Ask(b.Addr(), "E", nil, 0); err == nil {
		t.Fatal("Ask after shutdown succeeded")
	}
}

// TestMsgTypeStrings pins every live message type to its wire code and name,
// and checks that a frame under a retired code (6 and 7, the stream pair; 9
// and 10, a second fetch pair) decodes as an unknown type.
func TestMsgTypeStrings(t *testing.T) {
	for _, tt := range []struct {
		ty   MsgType
		code byte
		want string
	}{
		{TypeRpcRequest, 1, "RpcRequest"}, {TypeRpcResponse, 2, "RpcResponse"},
		{TypeOneWayMessage, 3, "OneWayMessage"}, {TypeChunkFetchRequest, 4, "ChunkFetchRequest"},
		{TypeChunkFetchSuccess, 5, "ChunkFetchSuccess"}, {TypeRpcFailure, 8, "RpcFailure"},
		{TypeCollectiveChunk, 11, "CollectiveChunk"}, {TypePushBlock, 12, "PushBlock"},
		{MsgType(6), 6, "MsgType(6)"}, {MsgType(7), 7, "MsgType(7)"},
		{MsgType(9), 9, "MsgType(9)"}, {MsgType(10), 10, "MsgType(10)"},
	} {
		if byte(tt.ty) != tt.code || tt.ty.String() != tt.want {
			t.Errorf("%s has code %d, want %q with code %d", tt.ty, byte(tt.ty), tt.want, tt.code)
		}
	}
	for _, code := range []byte{6, 7, 9, 10} {
		// A retired code followed by what a stream frame carried: an id.
		frame := append([]byte{code, 0, 0, 0, 3}, "jar"...)
		if m, err := decodeFrame(bytebuf.Wrap(frame), nil, nil); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("code %d decoded as %v, %v; want an unknown message type", code, m, err)
		}
	}
}

func TestLoopbackEnvOnSameNode(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	n := f.AddNode("solo")
	a, err := NewEnv("a", n, "rpc-a", DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	b, err := NewEnv("b", n, "rpc-b", DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()
	if err := b.RegisterEndpoint("E", func(c *Call) { c.Reply([]byte("local"), c.VT) }); err != nil {
		t.Fatal(err)
	}
	r, vt, err := a.Ask(b.Addr(), "E", nil, 0)
	if err != nil || string(r) != "local" {
		t.Fatalf("loopback ask: %q %v", r, err)
	}
	// Loopback should be far cheaper than a wire RTT.
	wire := vtime.Duration(f.TransferTime(fabric.TCP, 0) * 2)
	if vt >= wire {
		t.Fatalf("loopback vt %v not cheaper than wire %v", vt, wire)
	}
}
