package netty

import (
	"sync"
	"time"

	"mpi4spark/internal/vtime"
)

// LoopConfig tunes an event loop.
type LoopConfig struct {
	// ReadEventCost is the modeled CPU cost charged to each inbound message
	// for selector dispatch and pipeline traversal.
	ReadEventCost time.Duration
}

// EventLoop drives a set of channels: it waits for readiness (the select
// step) and drains inbound messages through pipelines, all on one
// goroutine — the Netty threading model.
type EventLoop struct {
	cfg  LoopConfig
	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// channels is in registration order and copy-on-write: Register and
	// deregister publish a fresh slice, drainChannels walks the current
	// one without copying it.
	channels []*Channel

	// turn is where the next drainChannels scan starts; only the loop
	// goroutine touches it.
	turn int

	// AuxPoll, when non-nil, is invoked once per loop iteration, that is
	// once per wake-up. It is the hook through which MPI4Spark-Basic
	// inserts its MPI_Iprobe polling. It reports whether it performed work.
	auxPoll func() bool
}

// NewEventLoop creates and starts an event loop.
func NewEventLoop(cfg LoopConfig) *EventLoop {
	l := &EventLoop{
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.run()
	return l
}

// SetAuxPoll installs the per-iteration polling hook (nil clears it).
func (l *EventLoop) SetAuxPoll(fn func() bool) {
	l.mu.Lock()
	l.auxPoll = fn
	l.mu.Unlock()
	l.Wakeup()
}

// Register attaches a channel to this loop. The channel is marked active,
// and its connection's readiness notifications are routed to the loop's
// selector.
func (l *EventLoop) Register(ch *Channel, vt vtime.Stamp) {
	// Both before publishing: the loop may drain and Close the channel as
	// soon as it is listed; Close deregisters through ch.loop, and an
	// activation after it would leave a closed channel active.
	ch.loop = l
	ch.markActive(vt)
	l.mu.Lock()
	l.channels = append(l.channels[:len(l.channels):len(l.channels)], ch)
	l.mu.Unlock()
	if ch.conn != nil {
		ch.conn.SetReadNotify(l.Wakeup)
	}
}

func (l *EventLoop) deregister(ch *Channel) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range l.channels {
		if c == ch {
			l.channels = append(l.channels[:i:i], l.channels[i+1:]...)
			return
		}
	}
}

// Shutdown stops the loop and waits for it to exit.
func (l *EventLoop) Shutdown() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.Wakeup()
	<-l.done
}

// Wakeup makes the loop run one more iteration: its selector's wake-up
// call. The token is buffered, so a wake-up raised while the loop scans is
// kept for the next iteration. It never blocks.
func (l *EventLoop) Wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the selector loop of Figure 5: wait for state changes, handle
// them, repeat (nothing here submits Figure 5's "other tasks"). An
// iteration that did work is followed by another without waiting (a
// non-blocking select); an idle loop blocks until Wakeup. The wake token is taken before the scan, so whatever
// arrives during a scan that misses it starts the next one.
func (l *EventLoop) run() {
	defer close(l.done)
	didWork := true
	for {
		if didWork {
			select {
			case <-l.stop:
				return
			case <-l.wake:
			default:
			}
		} else {
			select {
			case <-l.stop:
				return
			case <-l.wake:
			}
		}
		l.mu.Lock()
		aux := l.auxPoll
		l.mu.Unlock()

		didWork = l.drainChannels()
		if aux != nil && aux() {
			didWork = true
		}
	}
}

// drainChannels performs the "handle state changes" step: every registered
// channel with pending inbound data gets its messages fired through the
// pipeline. A per-channel batch limit keeps one busy channel from starving
// the rest; leftover data re-wakes the loop.
func (l *EventLoop) drainChannels() bool {
	const maxPerChannel = 16
	l.mu.Lock()
	chans := l.channels
	l.mu.Unlock()

	// Each scan starts one channel further on. A fixed order is a fixed
	// priority, and it shows in modelled time: drained in registration
	// order, IPoIB's bulk GroupBy ran 5 % longer (EXPERIMENTS.md).
	did := false
	if l.turn++; l.turn >= len(chans) {
		l.turn = 0
	}
	for i := range chans {
		ch := chans[(l.turn+i)%len(chans)]
		conn := ch.conn
		if conn == nil {
			continue
		}
		for n := 0; n < maxPerChannel; n++ {
			m, ok := conn.TryRecv()
			if !ok {
				break
			}
			did = true
			vt := m.VT.Add(l.cfg.ReadEventCost)
			ch.pipeline.FireChannelRead(m.Data, m.Body, vt)
		}
		if conn.Pending() {
			l.Wakeup()
		}
		if conn.Closed() && !conn.Pending() {
			ch.Close()
			did = true
		}
	}
	return did
}

// EventLoopGroup is a fixed set of event loops with round-robin assignment,
// like Netty's NioEventLoopGroup.
type EventLoopGroup struct {
	loops []*EventLoop
	next  int
	mu    sync.Mutex
}

// NewEventLoopGroup starts n event loops (n<1 is treated as 1).
func NewEventLoopGroup(n int, cfg LoopConfig) *EventLoopGroup {
	if n < 1 {
		n = 1
	}
	g := &EventLoopGroup{loops: make([]*EventLoop, n)}
	for i := range g.loops {
		g.loops[i] = NewEventLoop(cfg)
	}
	return g
}

// Next returns the next loop in round-robin order.
func (g *EventLoopGroup) Next() *EventLoop {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.loops[g.next%len(g.loops)]
	g.next++
	return l
}

// Loops returns all loops in the group.
func (g *EventLoopGroup) Loops() []*EventLoop { return g.loops }

// Shutdown stops every loop in the group.
func (g *EventLoopGroup) Shutdown() {
	for _, l := range g.loops {
		l.Shutdown()
	}
}
