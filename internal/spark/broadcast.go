package spark

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/vtime"
)

// BroadcastEndpoint is the executor-side endpoint receiving broadcast
// control messages (currently only destroy-invalidations).
const BroadcastEndpoint = "BroadcastManager"

// broadcastDropCost models the executor CPU spent freeing a cached
// broadcast copy on a destroy invalidation.
const broadcastDropCost = time.Microsecond

// Broadcast is a read-only variable shipped to executors once and cached
// there, like Spark's TorrentBroadcast. The value itself stays in process
// memory; its serialized form is seeded to every live executor at creation
// time through the collective broadcast (binomial tree for small blobs, a
// pipelined chunk chain for large ones), so the driver's link carries the
// blob once instead of once per executor. Executors that join later — a
// replacement after an ExecutorLost — pull it from the driver's block
// server on first use, as TorrentBroadcast reads its pieces through the
// block transfer service.
type Broadcast[T any] struct {
	id    int64
	ctx   *Context
	value T
	size  int
}

var broadcastSeq atomic.Int64

// broadcastState is the per-context registry of serialized broadcast blobs
// (driver side) and per-executor fetch caches.
type broadcastState struct {
	mu    sync.Mutex
	blobs map[string][]byte
	// fetched[execID][blockID] records the executor-local cache arrival
	// time; later reads on that executor are free.
	fetched   map[string]map[string]vtime.Stamp
	destroyed map[string]bool
}

func (c *Context) broadcasts() *broadcastState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bcast == nil {
		c.bcast = &broadcastState{
			blobs:     make(map[string][]byte),
			fetched:   make(map[string]map[string]vtime.Stamp),
			destroyed: make(map[string]bool),
		}
		// The driver serves its blobs as blocks, to late joiners' fetches.
		c.driver.RegisterChunkResolver(func(id string) ([]byte, bool) {
			c.bcast.mu.Lock()
			defer c.bcast.mu.Unlock()
			b, ok := c.bcast.blobs[id]
			return b, ok
		})
	}
	return c.bcast
}

// keep stores executor e's copy of broadcast id, arrived at vt, in its block
// manager, where Destroy's invalidation and the byte accounting see it, and
// records the arrival for later reads (the earliest of racing pulls wins).
func (st *broadcastState) keep(e *Executor, id string, blob []byte, vt vtime.Stamp) {
	e.bm.Put(storage.BlockID(id), blob)
	st.mu.Lock()
	defer st.mu.Unlock()
	cache := st.fetched[e.id]
	if cache == nil {
		cache = make(map[string]vtime.Stamp)
		st.fetched[e.id] = cache
	}
	if prev, ok := cache[id]; !ok || vt < prev {
		cache[id] = vt
	}
}

// NewBroadcast registers value with the driver for distribution and seeds
// it to every live executor through the collective broadcast.
// serializedSize models the wire size of the value (pass 0 to default to
// 1 KiB); the blob content itself is synthetic since executors share the
// driver's address space.
func NewBroadcast[T any](ctx *Context, value T, serializedSize int) *Broadcast[T] {
	if serializedSize <= 0 {
		serializedSize = 1 << 10
	}
	b := &Broadcast[T]{id: broadcastSeq.Add(1), ctx: ctx, value: value, size: serializedSize}
	st := ctx.broadcasts()
	blob := make([]byte, serializedSize)
	st.mu.Lock()
	st.blobs[b.blockID()] = blob
	st.mu.Unlock()
	ctx.seedBroadcast(b.blockID(), blob)
	return b
}

// seedBroadcast pushes a freshly registered broadcast blob to every live
// executor: the driver is rank 0 of a collective broadcast whose chunks
// forward executor-to-executor, and each executor caches what it received
// (read-only, and possibly the driver's blob itself: bodies cross by
// reference) in its block manager, so its bytes are accounted there. A
// failed seed (an executor dying mid-broadcast) leaves the lazy
// per-executor pull in Value as the path of record.
func (c *Context) seedBroadcast(sid string, blob []byte) {
	group, execs := c.collectiveGroup()
	if group.Size() < 2 {
		return
	}
	st := c.broadcasts()
	op := collective.NextOpID()
	at := c.Clock()
	var driverDone vtime.Stamp
	err := group.Run(op, "bcast", len(blob), func(rank int) error {
		if rank == 0 {
			_, vt, err := group.Bcast(op, 0, 0, blob, at)
			driverDone = vt
			return err
		}
		out, vt, err := group.Bcast(op, rank, 0, nil, at)
		if err == nil {
			st.keep(execs[rank-1], sid, out, vt)
		}
		return err
	})
	if err != nil {
		return
	}
	c.AdvanceClock(driverDone)
}

func (b *Broadcast[T]) blockID() string { return fmt.Sprintf("broadcast_%d", b.id) }

// Value fetches (on seed-miss first use per executor) and returns the
// broadcast value inside a task. Executors seeded at creation time hit
// their local cache; a later joiner pays one block fetch from the driver.
// Value panics if the broadcast was destroyed.
func (b *Broadcast[T]) Value(tc *TaskContext) T {
	st := b.ctx.broadcasts()
	sid := b.blockID()
	st.mu.Lock()
	dead := st.destroyed[sid]
	st.mu.Unlock()
	if dead {
		panic(fmt.Sprintf("spark: Value on destroyed broadcast %d", b.id))
	}
	e := tc.exec
	if e == nil {
		return b.value // driver-local use
	}

	st.mu.Lock()
	arrival, ok := st.fetched[e.id][sid]
	st.mu.Unlock()
	if ok {
		tc.Observe(arrival)
		return b.value
	}
	// A ChunkFetch of one block at the executor's shuffle chunk size, so on
	// MPI-Opt it crosses in eager-sized chunks like any other fetch.
	// Concurrent first-touchers may pull twice, like TorrentBroadcast's
	// racy-but-idempotent pulls.
	metrics.GetCounter("shuffle.fetch.requests").Inc()
	rs, _, err := e.env.FetchBlockBatch(b.ctx.driver.Addr(), []string{sid}, e.sm.ChunkBytes, tc.vt)
	if err == nil && rs[0].Err == nil {
		tc.Observe(rs[0].VT)
		st.keep(e, sid, rs[0].Data, rs[0].VT)
	}
	return b.value
}

// Destroy removes the broadcast everywhere: the driver drops its blob and
// every live executor is told to free its cached copy (block-manager bytes
// included). Reading a destroyed broadcast panics, matching Spark's
// destroy semantics.
func (b *Broadcast[T]) Destroy() {
	st := b.ctx.broadcasts()
	sid := b.blockID()
	st.mu.Lock()
	if st.destroyed[sid] {
		st.mu.Unlock()
		return
	}
	st.destroyed[sid] = true
	delete(st.blobs, sid)
	st.mu.Unlock()

	at := b.ctx.Clock()
	done := at
	for _, e := range b.ctx.Executors() {
		if e.dead.Load() {
			continue
		}
		if _, vt, err := b.ctx.driver.Ask(e.env.Addr(), BroadcastEndpoint, []byte(sid), at); err == nil {
			done = vtime.Max(done, vt)
		}
		st.mu.Lock()
		delete(st.fetched[e.id], sid)
		st.mu.Unlock()
	}
	b.ctx.AdvanceClock(done)
}
