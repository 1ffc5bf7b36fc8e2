package streaming

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// BlockRegistryEndpoint is the driver endpoint receivers register cut
// blocks with, the ReceiverTracker's AddBlock path. Registration crosses
// the simulated fabric from the receiving executor, so it is subject to
// the fault plane like any other control message; receivers retry with a
// deterministic virtual-time backoff until a link flap heals, and the
// driver deduplicates by (receiver, batch, block) so a retried
// registration never double-counts.
const BlockRegistryEndpoint = "StreamingBlocks"

// registration retry schedule (virtual time).
const (
	registerMaxAttempts = 24
	registerBackoff     = 200 * time.Microsecond
	registerBackoffCap  = 3200 * time.Microsecond
)

// blockKey identifies one registered block.
type blockKey struct {
	recv, batch, block int64
}

// serveBlockRegistry installs the driver-side block registry endpoint.
func (sc *StreamingContext) serveBlockRegistry() error {
	var mu sync.Mutex
	seen := make(map[blockKey]bool)
	return sc.ctx.Driver().RegisterEndpoint(BlockRegistryEndpoint, func(call *rpc.Call) {
		if len(call.Payload) < 32 {
			call.Fail(fmt.Sprintf("streaming: block registration of %d bytes, want 32", len(call.Payload)), call.VT)
			return
		}
		k := blockKey{
			recv:  int64(binary.BigEndian.Uint64(call.Payload[0:8])),
			batch: int64(binary.BigEndian.Uint64(call.Payload[8:16])),
			block: int64(binary.BigEndian.Uint64(call.Payload[16:24])),
		}
		events := int64(binary.BigEndian.Uint64(call.Payload[24:32]))
		mu.Lock()
		dup := seen[k]
		seen[k] = true
		mu.Unlock()
		if !dup {
			metrics.GetCounter(CounterBlocksGenerated).Inc()
			metrics.GetCounter(CounterEventsIngested).Add(events)
		}
		call.Reply(nil, call.VT)
	})
}

// blockResult is one receiver's contribution to a batch.
type blockResult struct {
	events int64
	blocks int
	ready  vtime.Stamp // last block's registration acknowledged
}

// receiverCore is the type-erased receiver the context drives; the typed
// block store and generator live in the closure Receive builds.
type receiverCore struct {
	sc         *StreamingContext
	id         int
	name       string
	exec       *spark.Executor
	rate       float64 // offered events/sec in virtual time
	eventBytes int

	// res is the receiver's ingest CPU: block cuts are a recurring
	// virtual-time timer, serialized through the resource so overlapping
	// cut work queues instead of running at identical stamps.
	res *vtime.Resource

	seq     int64   // next event sequence number
	carry   float64 // fractional-event accumulator across intervals
	backlog int64   // events arrived earlier but not yet admitted

	ingest  func(batch int, limit int64) (blockResult, error)
	release func(olderThan int)
}

// Backlog returns the receiver-side queue of events deferred by
// backpressure (generated by the source but not yet admitted).
type ReceiverHandle struct{ core *receiverCore }

// Backlog returns the current deferred-event count.
func (h ReceiverHandle) Backlog() int64 { return h.core.backlog }

// ReceiverConfig describes one generated event stream.
type ReceiverConfig[T any] struct {
	// Name labels the receiver in errors.
	Name string
	// Rate is the source's offered events/sec in virtual time.
	Rate float64
	// Gen produces the stream's i-th event; it must be a pure function of
	// the sequence number so replayed runs see identical data.
	Gen func(seq int64) T
	// EventBytes models one event's in-memory/wire size (default 8).
	EventBytes int
}

// Receive creates a receiver on the next executor (round-robin) and
// returns its input DStream plus a handle exposing receiver state. Each
// batch interval the receiver admits up to the backpressure limit from
// its offered rate plus backlog, cuts the admitted events into
// blocksPerBatch blocks, registers each block with the driver, and the
// input DStream turns a batch's blocks into an RDD whose partitions are
// pinned to this executor.
func Receive[T any](sc *StreamingContext, rc ReceiverConfig[T]) (*DStream[T], ReceiverHandle, error) {
	if rc.Gen == nil {
		return nil, ReceiverHandle{}, fmt.Errorf("streaming: receiver needs a generator")
	}
	if rc.Rate <= 0 {
		return nil, ReceiverHandle{}, fmt.Errorf("streaming: receiver needs a positive rate")
	}
	if rc.EventBytes <= 0 {
		rc.EventBytes = 8
	}
	execs := sc.ctx.Executors()
	core := &receiverCore{
		sc:         sc,
		id:         len(sc.receivers),
		name:       rc.Name,
		exec:       execs[len(sc.receivers)%len(execs)],
		rate:       rc.Rate,
		eventBytes: rc.EventBytes,
		res:        vtime.NewResource(),
	}
	if core.name == "" {
		core.name = fmt.Sprintf("receiver-%d", core.id)
	}

	data := make(map[int][][]T) // batch -> blocks
	core.ingest = func(batch int, limit int64) (blockResult, error) {
		return ingestInterval(core, rc.Gen, data, batch, limit)
	}
	core.release = func(olderThan int) {
		for b := range data {
			if b <= olderThan {
				delete(data, b)
			}
		}
	}
	sc.receivers = append(sc.receivers, core)

	in := newDStream(sc, func(batch int) (*spark.RDD[T], error) {
		blocks, ok := data[batch]
		if !ok {
			return nil, fmt.Errorf("streaming: receiver %s has no blocks for batch %d (forgotten?)", core.name, batch+1)
		}
		prefs := make([]string, len(blocks))
		for i := range prefs {
			prefs[i] = core.exec.ID()
		}
		return spark.FromPartitions(sc.ctx, blocks, rc.EventBytes).WithPreferred(prefs), nil
	})
	return in, ReceiverHandle{core: core}, nil
}

// ingestInterval runs one receiver's BlockGenerator for batch `batch`:
// admit events, cut blocks on the block interval, charge ingest CPU on
// the receiver's resource, and register every block with the driver.
func ingestInterval[T any](r *receiverCore, gen func(int64) T, data map[int][][]T, batch int, limit int64) (blockResult, error) {
	sc := r.sc
	intervalSec := sc.cfg.BatchInterval.Seconds()
	intervalStart := sc.epoch + vtime.Stamp(batch)*vtime.Duration(sc.cfg.BatchInterval)

	// Offered arrivals this interval, with a fractional carry so the
	// long-run rate is exact.
	offered := r.rate*intervalSec + r.carry
	arrivals := int64(math.Floor(offered))
	r.carry = offered - float64(arrivals)
	metrics.GetCounter(CounterEventsOffered).Add(arrivals)

	available := r.backlog + arrivals
	admitted := available
	if limit >= 0 && admitted > limit {
		admitted = limit
		metrics.GetCounter(CounterBackpressureLimits).Inc()
		metrics.GetCounter(CounterEventsDeferred).Add(available - admitted)
	}
	r.backlog = available - admitted

	const nBlocks = blocksPerBatch
	blockNs := vtime.Duration(sc.cfg.BatchInterval / nBlocks)
	blocks := make([][]T, nBlocks)
	cpu := sc.ctx.CPU()

	res := blockResult{events: admitted, blocks: nBlocks}
	for i := 0; i < nBlocks; i++ {
		// Spread admitted events evenly across the interval's blocks.
		n := admitted / int64(nBlocks)
		if int64(i) < admitted%int64(nBlocks) {
			n++
		}
		blk := make([]T, n)
		for j := range blk {
			blk[j] = gen(r.seq)
			r.seq++
		}
		blocks[i] = blk

		// The block is cut when its sub-interval closes; ingest CPU for
		// its events occupies the receiver's resource from then.
		cutVT := intervalStart + vtime.Stamp(i+1)*blockNs
		cost := time.Duration(cpu.NsPerRecord*float64(n) + cpu.NsPerByte*float64(n*int64(r.eventBytes)))
		_, done := r.res.Occupy(cutVT, cost)

		ackVT, err := r.registerBlock(batch, i, n, done)
		if err != nil {
			return res, err
		}
		if ackVT > res.ready {
			res.ready = ackVT
		}
	}
	data[batch] = blocks
	return res, nil
}

// registerBlock announces one cut block to the driver's block registry,
// retrying with doubling virtual-time backoff across link flaps.
func (r *receiverCore) registerBlock(batch, block int, events int64, at vtime.Stamp) (vtime.Stamp, error) {
	payload := make([]byte, 40)
	binary.BigEndian.PutUint64(payload[0:8], uint64(r.id))
	binary.BigEndian.PutUint64(payload[8:16], uint64(batch))
	binary.BigEndian.PutUint64(payload[16:24], uint64(block))
	binary.BigEndian.PutUint64(payload[24:32], uint64(events))
	binary.BigEndian.PutUint64(payload[32:40], uint64(events)*uint64(r.eventBytes))

	vt := at
	var lastErr error
	backoff := registerBackoff
	for attempt := 0; attempt < registerMaxAttempts; attempt++ {
		_, ackVT, err := r.exec.Env().Ask(r.sc.ctx.Driver().Addr(), BlockRegistryEndpoint, payload, vt)
		if err == nil {
			return ackVT, nil
		}
		lastErr = err
		vt = vt.Add(backoff)
		if backoff < registerBackoffCap {
			backoff *= 2
		}
	}
	return vt, fmt.Errorf("streaming: registering block %d/%d of receiver %s: %w",
		batch+1, block, r.name, lastErr)
}
