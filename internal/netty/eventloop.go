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
	// NonBlockingSelect switches the loop from a blocking select (the
	// default, Netty's normal mode) to a non-blocking select that spins.
	// The MPI4Spark-Basic design runs in this mode, pairing each spin with
	// an MPI_Iprobe via AuxPoll; the paper found exactly this to starve
	// compute.
	NonBlockingSelect bool
	// SpinYield is the real-time pause between non-blocking select
	// iterations, keeping the host responsive. It has no virtual-time
	// meaning; virtual poll costs are charged by the AuxPoll hook itself.
	SpinYield time.Duration
}

// EventLoop drives a set of channels: it waits for readiness (the select
// step), drains inbound messages through pipelines, and runs submitted
// tasks, all on one goroutine — the Netty threading model.
type EventLoop struct {
	cfg  LoopConfig
	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	channels map[*Channel]struct{}
	tasks    []func()

	// AuxPoll, when non-nil, is invoked once per loop iteration. It is the
	// hook through which MPI4Spark-Basic inserts its MPI_Iprobe polling.
	// It reports whether it performed work.
	auxPoll func() bool
}

// NewEventLoop creates and starts an event loop.
func NewEventLoop(cfg LoopConfig) *EventLoop {
	if cfg.SpinYield <= 0 {
		cfg.SpinYield = 50 * time.Microsecond
	}
	l := &EventLoop{
		cfg:      cfg,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		channels: make(map[*Channel]struct{}),
	}
	go l.run()
	return l
}

// SetAuxPoll installs the per-iteration polling hook (nil clears it).
func (l *EventLoop) SetAuxPoll(fn func() bool) {
	l.mu.Lock()
	l.auxPoll = fn
	l.mu.Unlock()
	l.wakeup()
}

// Register attaches a channel to this loop. The channel's connection
// readiness notifications are routed to the loop's selector, and the
// channel is marked active.
func (l *EventLoop) Register(ch *Channel, vt vtime.Stamp) {
	l.mu.Lock()
	l.channels[ch] = struct{}{}
	l.mu.Unlock()
	ch.loop = l
	if ch.conn != nil {
		ch.conn.SetReadNotify(l.wakeup)
	}
	ch.markActive(vt)
}

func (l *EventLoop) deregister(ch *Channel) {
	l.mu.Lock()
	delete(l.channels, ch)
	l.mu.Unlock()
}

// Execute submits a task to run on the event loop goroutine.
func (l *EventLoop) Execute(task func()) {
	l.mu.Lock()
	l.tasks = append(l.tasks, task)
	l.mu.Unlock()
	l.wakeup()
}

// Shutdown stops the loop and waits for it to exit.
func (l *EventLoop) Shutdown() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.wakeup()
	<-l.done
}

func (l *EventLoop) wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run is the selector loop of Figure 5: wait for state changes, handle
// them, execute other tasks, repeat.
func (l *EventLoop) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		aux := l.auxPoll
		nonBlocking := l.cfg.NonBlockingSelect || aux != nil
		l.mu.Unlock()

		if nonBlocking {
			// Non-blocking select: check readiness without waiting, so the
			// AuxPoll hook runs continuously (the Basic design).
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

		didWork := l.runTasks()
		if l.drainChannels() {
			didWork = true
		}
		if aux != nil && aux() {
			didWork = true
		}

		select {
		case <-l.stop:
			return
		default:
		}
		if nonBlocking && !didWork {
			// Keep the host machine responsive; virtual time is unaffected.
			time.Sleep(l.cfg.SpinYield)
		}
	}
}

func (l *EventLoop) runTasks() bool {
	l.mu.Lock()
	tasks := l.tasks
	l.tasks = nil
	l.mu.Unlock()
	for _, t := range tasks {
		t()
	}
	return len(tasks) > 0
}

// drainChannels performs the "handle state changes" step: every registered
// channel with pending inbound data gets its messages fired through the
// pipeline. A per-channel batch limit keeps one busy channel from starving
// the rest; leftover data re-wakes the loop.
func (l *EventLoop) drainChannels() bool {
	const maxPerChannel = 16
	l.mu.Lock()
	chans := make([]*Channel, 0, len(l.channels))
	for ch := range l.channels {
		chans = append(chans, ch)
	}
	l.mu.Unlock()

	did := false
	for _, ch := range chans {
		conn := ch.conn
		if conn == nil {
			continue
		}
		for i := 0; i < maxPerChannel; i++ {
			m, ok := conn.TryRecv()
			if !ok {
				break
			}
			did = true
			vt := m.VT.Add(l.cfg.ReadEventCost)
			ch.pipeline.FireChannelRead(WrapInbound(m.Data, m.Body), vt)
		}
		if conn.Pending() {
			l.wakeup()
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
