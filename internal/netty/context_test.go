package netty

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// trace records what each handler of a scenario saw, in call order.
type trace struct {
	mu    sync.Mutex
	lines []string
}

func (tr *trace) add(format string, args ...any) {
	tr.mu.Lock()
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
	tr.mu.Unlock()
}

// stamper is a handler for both directions: it records the stamp it is
// called with, advances by d, forwards, and records the stamp its context
// holds once the rest of the traversal has returned.
type stamper struct {
	name string
	d    vtime.Stamp
	tr   *trace
}

func (h *stamper) ChannelRead(ctx *Context, msg any) {
	h.tr.add("%s<%d", h.name, ctx.VT())
	ctx.SetVT(ctx.VT() + h.d)
	ctx.FireChannelRead(msg)
	h.tr.add("%s>%d", h.name, ctx.VT())
}

func (h *stamper) Write(ctx *Context, msg any) {
	h.tr.add("%s<<%d", h.name, ctx.VT())
	ctx.SetVT(ctx.VT() + h.d)
	ctx.Write(msg)
	h.tr.add("%s>>%d", h.name, ctx.VT())
}

// stampSink is a transport that records the stamp a write reaches it with
// and takes cost to send.
type stampSink struct {
	tr   *trace
	cost vtime.Stamp
}

func (s *stampSink) WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp {
	s.tr.add("wire@%d", vt)
	return vt + s.cost
}
func (s *stampSink) Close() error { return nil }

// TestContextStamps pins the stamp every handler sees, on the way in and
// after the handlers behind it have returned, and the stamp Pipeline.Write
// returns. The literals are the stamps of the per-hop contexts this package
// used to build: one context per event must reproduce them.
func TestContextStamps(t *testing.T) {
	cases := []struct {
		name string
		run  func(tr *trace)
		want []string
	}{
		{
			name: "advance and forward, both directions",
			run: func(tr *trace) {
				ch := NewChannel()
				ch.SetTransport(&stampSink{tr: tr, cost: 11})
				ch.Pipeline().AddLast("a", &stamper{"a", 5, tr})
				ch.Pipeline().AddLast("b", &stamper{"b", 7, tr})
				ch.Pipeline().FireChannelRead("m", 100)
				tr.add("write=%d", ch.Write("w", 10))
			},
			want: []string{
				"a<100", "b<105", "b>112", "a>112",
				"b<<10", "a<<17", "wire@22", "a>>33", "b>>33", "write=33",
			},
		},
		{
			name: "reply written from inside ChannelRead",
			run: func(tr *trace) {
				ch := NewChannel()
				ch.SetTransport(&stampSink{tr: tr, cost: 11})
				ch.Pipeline().AddLast("enc", &stamper{"enc", 3, tr})
				ch.Pipeline().AddLast("echo", inboundFunc(func(ctx *Context, msg any) {
					tr.add("echo<%d", ctx.VT())
					ctx.SetVT(ctx.VT() + 5)
					free := ctx.Channel().Write(msg, ctx.VT()+1)
					tr.add("echo wrote=%d holds=%d", free, ctx.VT())
				}))
				ch.Pipeline().FireChannelRead("m", 100)
			},
			want: []string{
				"enc<100", "echo<103", "enc<<109", "wire@112", "enc>>123",
				"echo wrote=123 holds=108", "enc>108",
			},
		},
		{
			name: "two messages fired onward",
			run: func(tr *trace) {
				ch := NewChannel()
				ch.Pipeline().AddLast("split", inboundFunc(func(ctx *Context, msg any) {
					tr.add("split<%d", ctx.VT())
					ctx.FireChannelRead(msg.(string) + "1")
					ctx.SetVT(ctx.VT() + 2)
					ctx.FireChannelRead(msg.(string) + "2")
					tr.add("split>%d", ctx.VT())
				}))
				ch.Pipeline().AddLast("b", &stamper{"b", 5, tr})
				ch.Pipeline().AddLast("rec", inboundFunc(func(ctx *Context, msg any) {
					tr.add("rec %s@%d", msg, ctx.VT())
				}))
				ch.Pipeline().FireChannelRead("m", 100)
			},
			want: []string{
				"split<100", "b<100", "rec m1@105", "b>105",
				"b<107", "rec m2@112", "b>112", "split>112",
			},
		},
		{
			name: "traversal of a second pipeline from inside a handler",
			run: func(tr *trace) {
				ch1, ch2 := NewChannel(), NewChannel()
				ch2.Pipeline().AddLast("c", &stamper{"c", 9, tr})
				ch2.Pipeline().AddLast("rec2", inboundFunc(func(ctx *Context, msg any) {
					tr.add("rec2@%d own-channel=%t", ctx.VT(), ctx.Channel() == ch2)
				}))
				ch1.Pipeline().AddLast("a", &stamper{"a", 5, tr})
				ch1.Pipeline().AddLast("bridge", inboundFunc(func(ctx *Context, msg any) {
					tr.add("bridge<%d", ctx.VT())
					ch2.Pipeline().FireChannelRead(msg, ctx.VT()+1)
					tr.add("bridge holds=%d own-channel=%t", ctx.VT(), ctx.Channel() == ch1)
					ctx.FireChannelRead(msg)
				}))
				ch1.Pipeline().AddLast("rec1", inboundFunc(func(ctx *Context, msg any) {
					tr.add("rec1@%d", ctx.VT())
				}))
				ch1.Pipeline().FireChannelRead("m", 100)
			},
			want: []string{
				"a<100", "bridge<105", "c<106", "rec2@115 own-channel=true", "c>115",
				"bridge holds=105 own-channel=true", "rec1@105", "a>105",
			},
		},
		{
			name: "AddBefore during a traversal",
			run: func(tr *trace) {
				ch := NewChannel()
				ch.SetTransport(&stampSink{tr: tr, cost: 11})
				p := ch.Pipeline()
				first := true
				p.AddLast("a", &stamper{"a", 5, tr})
				p.AddLast("mut", inboundFunc(func(ctx *Context, msg any) {
					if first {
						first = false
						p.AddBefore("rec", "late", &stamper{"late", 100, tr})
					}
					ctx.FireChannelRead(msg)
				}))
				p.AddLast("b", &stamper{"b", 7, tr})
				p.AddLast("rec", inboundFunc(func(ctx *Context, msg any) {
					tr.add("rec %s@%d", msg, ctx.VT())
				}))
				// The event under way keeps the handlers it started with; the
				// next one, and a write, see the pipeline as mutated.
				p.FireChannelRead("m1", 100)
				p.FireChannelRead("m2", 200)
				tr.add("write=%d", ch.Write("w", 10))
			},
			want: []string{
				"a<100", "b<105", "rec m1@112", "b>112", "a>112",
				"a<200", "b<205", "late<212", "rec m2@312", "late>312", "b>312", "a>312",
				"late<<10", "b<<110", "a<<117", "wire@122", "a>>133", "b>>133", "late>>133", "write=133",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &trace{}
			c.run(tr)
			if !reflect.DeepEqual(tr.lines, c.want) {
				t.Fatalf("stamps\n got %q\nwant %q", tr.lines, c.want)
			}
		})
	}
}

// TestContextDeadAfterItsCall: a context a handler kept is of no use once the
// traversal it carried has returned. It holds no stamp and no handlers, so
// firing through it reaches nobody, and it names no channel (asking for one
// panics or yields nil).
func TestContextDeadAfterItsCall(t *testing.T) {
	ch := NewChannel()
	ch.SetTransport(&sinkTransport{})
	var kept *Context
	reached := 0
	ch.Pipeline().AddLast("keeper", inboundFunc(func(ctx *Context, msg any) {
		kept = ctx
		ctx.FireChannelRead(msg)
	}))
	ch.Pipeline().AddLast("rec", inboundFunc(func(ctx *Context, msg any) { reached++ }))
	ch.Pipeline().FireChannelRead("m", 100)
	if reached != 1 {
		t.Fatalf("live traversal reached the tail %d times", reached)
	}
	if vt := kept.VT(); vt != 0 {
		t.Fatalf("dead context still holds stamp %v", vt)
	}
	kept.FireChannelRead("again")
	if reached != 1 {
		t.Fatal("a dead context delivered a message")
	}
	var named *Channel
	func() {
		defer func() { _ = recover() }()
		named = kept.Channel()
	}()
	if named != nil {
		t.Fatalf("dead context names channel %s", named.ID())
	}
}

// passThrough forwards in both directions and touches nothing.
type passThrough struct{}

func (passThrough) ChannelRead(ctx *Context, msg any) { ctx.FireChannelRead(msg) }
func (passThrough) Write(ctx *Context, msg any)       { ctx.Write(msg) }

// TestPipelineTraversalAllocatesNothing: an event costs its pipeline no
// allocation, whatever the number of handlers it passes.
func TestPipelineTraversalAllocatesNothing(t *testing.T) {
	ch := NewChannel()
	ch.SetTransport(&stampSink{tr: &trace{lines: make([]string, 0, 1)}})
	for i := 0; i < 4; i++ {
		ch.Pipeline().AddLast(fmt.Sprint("h", i), passThrough{})
	}
	var msg any = "m"
	if n := testing.AllocsPerRun(200, func() { ch.Pipeline().FireChannelRead(msg, 1) }); n != 0 {
		t.Errorf("inbound event through four handlers: %v allocations, want 0", n)
	}
	ch.SetTransport(nullTransport{})
	if n := testing.AllocsPerRun(200, func() { ch.Write(msg, 1) }); n != 0 {
		t.Errorf("outbound write through four handlers: %v allocations, want 0", n)
	}
}

type nullTransport struct{}

func (nullTransport) WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp { return vt }
func (nullTransport) Close() error                                 { return nil }

// TestConcurrentTraversalsKeepTheirStamps: eight goroutines write to each of
// four channels whose peers drain on one event loop. Every message arrives
// exactly once, at the stamp it was written at plus what the handlers on its
// own way added: traversals that run at the same time, and the ones a
// single loop runs back to back, never see each other's context.
func TestConcurrentTraversalsKeepTheirStamps(t *testing.T) {
	const chans, writers, perWriter = 4, 8, 25
	f := fabric.New(fabric.NewZeroModel())
	f.AddNode("n0")
	f.AddNode("n1")
	clients := NewEventLoopGroup(1, LoopConfig{})
	defer clients.Shutdown()
	servers := NewEventLoopGroup(1, LoopConfig{ReadEventCost: time.Microsecond})
	defer servers.Shutdown()

	// A message is its own id, and each direction adds an amount derived from
	// it. All are written at one stamp and the outbound amounts are few, so the
	// NICs see a handful of distinct stamps and grant each as asked, in
	// whatever order the writers arrive; the inbound amount, added behind the
	// wire, makes every message's final stamp its own.
	const writtenAt = vtime.Stamp(1000)
	outAdd := func(id uint32) vtime.Stamp { return vtime.Stamp(id%7 + 1) }
	inAdd := func(id uint32) vtime.Stamp { return vtime.Stamp(id) * 16 }
	idOf := func(msg any) uint32 {
		head, _ := Parts(msg)
		id, _ := head.PeekUint32()
		return id
	}

	var mu sync.Mutex
	got := make(map[uint32][]vtime.Stamp)
	arrived := make(chan struct{}, chans*writers*perWriter)
	srv, err := (&ServerBootstrap{Group: servers, Initializer: func(ch *Channel) {
		ch.Pipeline().AddLast("add", inboundFunc(func(ctx *Context, msg any) {
			ctx.SetVT(ctx.VT() + inAdd(idOf(msg)))
			ctx.FireChannelRead(msg)
		}))
		ch.Pipeline().AddLast("pass", passThrough{})
		ch.Pipeline().AddLast("rec", inboundFunc(func(ctx *Context, msg any) {
			mu.Lock()
			got[idOf(msg)] = append(got[idOf(msg)], ctx.VT())
			mu.Unlock()
			arrived <- struct{}{}
		}))
	}}).Listen(f.Node("n1"), "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < chans; c++ {
		ch, _, err := (&Bootstrap{Group: clients, Protocol: fabric.TCP, Initializer: func(ch *Channel) {
			ch.Pipeline().AddLast("pass", passThrough{})
			ch.Pipeline().AddLast("add", outboundFunc(func(ctx *Context, msg any) {
				ctx.SetVT(ctx.VT() + outAdd(idOf(msg)))
				ctx.Write(msg)
			}))
		}}).Connect(f.Node("n0"), srv.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(first uint32) {
				defer wg.Done()
				for id := first; id < first+perWriter; id++ {
					buf := bytebuf.New(4)
					buf.WriteUint32(id)
					if free, want := ch.Write(buf, writtenAt), writtenAt+outAdd(id); free != want {
						t.Errorf("message %d: Write returned %d, want %d", id, free, want)
					}
				}
			}(uint32((c*writers+w)*perWriter + 1))
		}
	}
	wg.Wait()
	for i := 0; i < chans*writers*perWriter; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d of %d never arrived", i+1, chans*writers*perWriter)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for id := uint32(1); id <= chans*writers*perWriter; id++ {
		want := writtenAt + outAdd(id) + vtime.Duration(time.Microsecond) + inAdd(id)
		if vts := got[id]; len(vts) != 1 || vts[0] != want {
			t.Errorf("message %d arrived at %v, want once at %d", id, vts, want)
		}
	}
}

// outboundFunc adapts a function to OutboundHandler.
type outboundFunc func(ctx *Context, msg any)

func (f outboundFunc) Write(ctx *Context, msg any) { f(ctx, msg) }
