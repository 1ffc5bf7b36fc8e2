// Package netty is an event-driven network application framework in the
// style of the Netty project: channels carry framed messages through
// pipelines of inbound and outbound handlers, driven by event loops with a
// selector at their heart.
//
// Spark (the mini-Spark in internal/spark) builds its RPC and shuffle
// transports on this package, exactly as Apache Spark builds on Netty. The
// MPI-based transports of the paper (MPI4Spark-Basic and -Optimized) are
// implemented in internal/core as alternative Transports and handlers
// plugged into this framework, leaving this package protocol-agnostic.
package netty

import (
	"fmt"
	"sync"

	"mpi4spark/internal/vtime"
)

// InboundHandler reacts to data or events travelling from the transport
// towards the application (tail of the pipeline).
type InboundHandler interface {
	// ChannelRead is invoked for every inbound message. Implementations
	// forward with ctx.FireChannelRead unless they consume the message. ctx
	// is valid only until ChannelRead returns (see Context).
	ChannelRead(ctx *Context, msg any)
}

// OutboundHandler intercepts writes travelling from the application towards
// the transport (head of the pipeline).
type OutboundHandler interface {
	// Write is invoked for every outbound message. Implementations forward
	// with ctx.Write unless they consume the message. ctx is valid only
	// until Write returns (see Context).
	Write(ctx *Context, msg any)
}

// ActiveHandler is an optional interface for handlers that want channel
// activation events.
type ActiveHandler interface {
	ChannelActive(ctx *Context)
}

// InactiveHandler is an optional interface for handlers that want channel
// deactivation events.
type InactiveHandler interface {
	ChannelInactive(ctx *Context)
}

// entry is one named handler in a pipeline.
type entry struct {
	name    string
	handler any
}

// Pipeline is an ordered chain of handlers attached to a channel. Inbound
// events flow from the first handler to the last; outbound writes flow from
// the last handler to the first and finally into the transport.
type Pipeline struct {
	mu sync.RWMutex
	// entries is copy-on-write: every mutator publishes a fresh slice, so a
	// traversal reads the one it started with, uncopied and unlocked.
	entries []entry
	channel *Channel
}

// AddLast appends a handler. The name must be unique within the pipeline.
func (p *Pipeline) AddLast(name string, h any) *Pipeline {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.name == name {
			panic(fmt.Sprintf("netty: duplicate handler %q", name))
		}
	}
	p.entries = append(p.entries[:len(p.entries):len(p.entries)], entry{name: name, handler: h})
	return p
}

// AddBefore inserts a handler immediately before the named existing
// handler. It panics if the anchor is missing or the name duplicates.
func (p *Pipeline) AddBefore(anchor, name string, h any) *Pipeline {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := -1
	for i, e := range p.entries {
		if e.name == name {
			panic(fmt.Sprintf("netty: duplicate handler %q", name))
		}
		if e.name == anchor {
			idx = i
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("netty: no handler %q to insert before", anchor))
	}
	fresh := append(p.entries[:idx:idx], entry{name: name, handler: h})
	p.entries = append(fresh, p.entries[idx:]...)
	return p
}

// snapshot returns the current entries, so traversal does not hold the
// lock across handler calls.
func (p *Pipeline) snapshot() []entry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.entries
}

// FireChannelRead injects an inbound message at the head of the pipeline
// with the given virtual timestamp (normally the delivery time reported by
// the transport).
func (p *Pipeline) FireChannelRead(msg any, vt vtime.Stamp) {
	ctx := contexts.Get().(*Context)
	*ctx = Context{pipeline: p, entries: p.snapshot(), idx: -1, vt: vt}
	ctx.FireChannelRead(msg)
	ctx.recycle()
}

// FireChannelActive delivers the activation event to every handler that
// implements ActiveHandler, in pipeline order.
func (p *Pipeline) FireChannelActive(vt vtime.Stamp) {
	entries := p.snapshot()
	for i, e := range entries {
		if h, ok := e.handler.(ActiveHandler); ok {
			h.ChannelActive(&Context{pipeline: p, entries: entries, idx: i, vt: vt})
		}
	}
}

// FireChannelInactive delivers the deactivation event.
func (p *Pipeline) FireChannelInactive(vt vtime.Stamp) {
	entries := p.snapshot()
	for i, e := range entries {
		if h, ok := e.handler.(InactiveHandler); ok {
			h.ChannelInactive(&Context{pipeline: p, entries: entries, idx: i, vt: vt})
		}
	}
}

// Write injects an outbound message at the tail of the pipeline. When the
// write reaches the head it is handed to the channel's transport. It
// returns the virtual time at which the writer's CPU is free.
func (p *Pipeline) Write(msg any, vt vtime.Stamp) vtime.Stamp {
	ctx := contexts.Get().(*Context)
	*ctx = Context{pipeline: p, entries: p.snapshot(), vt: vt}
	ctx.idx = len(ctx.entries)
	ctx.Write(msg)
	vt = ctx.vt
	ctx.recycle()
	return vt
}

// Context carries one event through the pipeline. It records the event's
// virtual timestamp, which handlers advance as they model processing cost.
//
// One context serves the event's whole traversal: it is a cursor that moves
// from handler to handler and goes back to a pool when the traversal returns.
// So a context is valid only during the handler call it was passed to, and
// handlers are synchronous: whatever a handler does with ctx it does before
// it returns, and what must outlive the call (the channel, a stamp) it reads
// out first. A handler may start further traversals from inside the call
// (write a reply, fire twice, fire into another pipeline); each
// Pipeline.FireChannelRead and Pipeline.Write carries a context of its own.
type Context struct {
	pipeline *Pipeline
	entries  []entry
	idx      int
	vt       vtime.Stamp
}

// contexts recycles the per-event contexts: one allocation per message and
// direction otherwise, a fifth of a small-block shuffle's (EXPERIMENTS.md
// "The fixed cost of a message").
var contexts = sync.Pool{New: func() any { return new(Context) }}

// recycle hands a context whose traversal has returned back to the pool,
// zeroed: a handler that kept it finds no pipeline, no handlers and no stamp.
// Only the normal path gets here; a traversal that panicked leaves its
// half-moved context to the collector.
func (c *Context) recycle() {
	*c = Context{}
	contexts.Put(c)
}

// Channel returns the channel this pipeline belongs to.
func (c *Context) Channel() *Channel { return c.pipeline.channel }

// VT returns the event's current virtual timestamp.
func (c *Context) VT() vtime.Stamp { return c.vt }

// SetVT overrides the event's virtual timestamp.
func (c *Context) SetVT(vt vtime.Stamp) { c.vt = vt }

// FireChannelRead forwards an inbound message to the next inbound handler,
// or discards it at the tail (as Netty's TailContext does).
func (c *Context) FireChannelRead(msg any) {
	for i := c.idx + 1; i < len(c.entries); i++ {
		if h, ok := c.entries[i].handler.(InboundHandler); ok {
			at := c.idx
			c.idx = i
			h.ChannelRead(c, msg)
			c.idx = at
			return
		}
	}
}

// Write forwards an outbound message to the previous outbound handler, or
// to the transport at the head.
func (c *Context) Write(msg any) {
	for i := c.idx - 1; i >= 0; i-- {
		if h, ok := c.entries[i].handler.(OutboundHandler); ok {
			at := c.idx
			c.idx = i
			h.Write(c, msg)
			c.idx = at
			return
		}
	}
	ch := c.pipeline.channel
	if ch == nil || ch.transport == nil {
		return
	}
	c.vt = ch.transport.WriteMsg(msg, c.vt)
}
