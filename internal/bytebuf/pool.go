package bytebuf

import (
	"sync"
	"sync/atomic"
)

// Pool is a size-classed buffer pool in the spirit of Netty's
// PooledByteBufAllocator. Get returns a buffer with at least the requested
// capacity; Release returns it for reuse. Buffers above the largest size
// class are allocated unpooled.
type Pool struct {
	classes []int
	pools   []sync.Pool
	gets    atomic.Int64
	hits    atomic.Int64
}

// DefaultClasses are the pool's size classes, 256 B to 4 MiB in powers of 4.
var DefaultClasses = []int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// NewPool creates a pool with the given size classes (ascending). A nil or
// empty slice selects DefaultClasses.
func NewPool(classes []int) *Pool {
	if len(classes) == 0 {
		classes = DefaultClasses
	}
	p := &Pool{classes: classes, pools: make([]sync.Pool, len(classes))}
	for i := range p.pools {
		capi := classes[i]
		p.pools[i].New = func() any { return &Buf{data: make([]byte, capi)} }
	}
	return p
}

// classFor returns the index of the smallest class >= n, or -1 if n exceeds
// every class.
func (p *Pool) classFor(n int) int {
	for i, c := range p.classes {
		if n <= c {
			return i
		}
	}
	return -1
}

// Get returns an empty buffer with capacity at least n.
func (p *Pool) Get(n int) *Buf {
	p.gets.Add(1)
	ci := p.classFor(n)
	if ci < 0 {
		return New(n)
	}
	b := p.pools[ci].Get().(*Buf)
	if b.recycled {
		p.hits.Add(1)
	}
	b.Reset()
	b.pool = p
	return b
}

// Release returns a buffer to its pool. Releasing an unpooled buffer is a
// no-op, and so is releasing a buffer twice: Get sets the owner and Release
// clears it, so a second Release cannot file the buffer again and let two
// later Gets share its memory. The buffer must not be used after Release.
func (p *Pool) Release(b *Buf) {
	if b == nil || b.pool != p {
		return
	}
	b.pool = nil
	b.recycled = true
	// File under the largest class the capacity covers, so a Get never
	// receives less than it asked for: a buffer that grew mid-use moves up,
	// one that grew only part of the way to the next class stays put.
	ci := -1
	for i, c := range p.classes {
		if c <= len(b.data) {
			ci = i
		}
	}
	if ci < 0 {
		return
	}
	b.Reset()
	p.pools[ci].Put(b)
}

// Stats reports total Get calls and how many were served by reuse.
func (p *Pool) Stats() (gets, hits int64) {
	return p.gets.Load(), p.hits.Load()
}

// Release returns the buffer to the pool it came from. It is a no-op for
// unpooled buffers, so callers can release unconditionally. The buffer
// must not be used after Release.
func (b *Buf) Release() {
	if b.pool != nil {
		b.pool.Release(b)
	}
}

// Default is the process-wide pool backing Get. The shuffle data path
// (message encoding, frame assembly, batched block reassembly) carves its
// buffers from it so steady-state shuffle allocates O(chunk size) instead
// of a fresh slice per message.
var Default = NewPool(nil)

// Get returns an empty pooled buffer with capacity at least n from the
// Default pool.
func Get(n int) *Buf { return Default.Get(n) }
