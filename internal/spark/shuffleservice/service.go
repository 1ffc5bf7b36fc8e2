// Package shuffleservice implements a per-worker external shuffle service
// with Magnet-style push-based merge: map tasks push committed blocks to
// their node-local service, the service merges pushed blocks per reduce
// partition into locality-sorted runs, and reducers fetch from the service
// instead of the executor. Because the service is its own RPC endpoint —
// not part of any executor process — map outputs survive executor loss and
// the scheduler never needs to resubmit a completed map stage.
package shuffleservice

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/vtime"
)

// Metric names. In a clean run with merging enabled the three reconcile
// exactly: every accepted pushed byte is merged once and served once.
const (
	// CounterPushedBytes counts payload bytes of accepted (non-duplicate)
	// pushes.
	CounterPushedBytes = "shuffle.service.pushed_bytes"
	// CounterMergedBytes counts payload bytes folded into merged runs
	// (re-merges after late pushes count only the newly added bytes).
	CounterMergedBytes = "shuffle.service.merged_bytes"
	// CounterServedBytes counts payload bytes served to reducers, whether
	// as merged runs or per-block fallback fetches.
	CounterServedBytes = "shuffle.service.served_bytes"
)

// Push ack payloads.
const (
	// AckPushed acknowledges a block the service accepted and stored.
	AckPushed = "ok"
	// AckDuplicate acknowledges an idempotent re-push of a block the
	// service already holds (a map task retried after its first push
	// landed); the block is not re-counted.
	AckDuplicate = "dup"
)

type mergeKey struct {
	shuffle int
	reduce  int
}

// pushedBlock is one map task's block for a reduce partition.
type pushedBlock struct {
	mapID int
	body  []byte
}

// mergeState accumulates one reduce partition's pushed blocks, in map-id
// order, and caches its full run.
type mergeState struct {
	blocks  []pushedBlock
	run     []byte // cached full run; nil until a whole-partition read and after every push
	pushed  int    // bytes pushed (the length of a full run)
	counted int    // of those, already counted as merged
}

// search returns the index of the first pushed block whose map id is at
// least mapID.
func (ms *mergeState) search(mapID int) int {
	i, _ := slices.BinarySearchFunc(ms.blocks, mapID, func(b pushedBlock, id int) int { return b.mapID - id })
	return i
}

// concat returns the run of the pushed blocks with map ids in [mapLo,
// mapHi): their bodies back to back in map-id order. A run of one block is
// that block, by reference; only a run of two or more is copied, and that
// copy is the merge. Caller holds s.mu.
func (ms *mergeState) concat(mapLo, mapHi int) []byte {
	span := ms.blocks[ms.search(mapLo):ms.search(mapHi)]
	if len(span) == 1 {
		return span[0].body
	}
	n := 0
	for _, b := range span {
		n += len(b.body)
	}
	run := make([]byte, 0, n)
	for _, b := range span {
		run = append(run, b.body...)
	}
	return run
}

// Service is one worker node's external shuffle service: a block store fed
// by pushes, a per-reduce-partition merger, and a resolver that serves
// both merged runs and individual pushed blocks over the node's transfer
// endpoints.
type Service struct {
	id  string
	env *rpc.Env
	bm  *storage.BlockManager

	mergeEnabled atomic.Bool
	bus          atomic.Pointer[obs.Bus]

	mu     sync.Mutex
	merges map[mergeKey]*mergeState
}

// New creates a service named id and registers it on env as the push
// handler and chunk resolver — the same endpoint surface an executor's
// BlockTransferService uses, so every transport that can fetch from an
// executor can fetch from the service. env may be nil for in-process use
// (tests, UCR-only serving); Attach can wire an environment later.
func New(id string, env *rpc.Env) *Service {
	s := &Service{
		id:     id,
		env:    env,
		bm:     storage.NewBlockManager(id),
		merges: make(map[mergeKey]*mergeState),
	}
	s.mergeEnabled.Store(true)
	if env != nil {
		s.Attach(env)
	}
	return s
}

// Attach registers the service's push handler and block resolver on env.
// A ranged read needs no hook of its own: the reducer asks for the range by
// block id (shuffle.RangedMergedBlockID) and Resolve serves it.
func (s *Service) Attach(env *rpc.Env) {
	s.env = env
	env.RegisterPushHandler(s.HandlePush)
	env.RegisterChunkResolver(s.Resolve)
}

// ID returns the service's identity (the ExecID of its locations).
func (s *Service) ID() string { return s.id }

// Addr returns the service endpoint's address.
func (s *Service) Addr() fabric.Addr { return s.env.Addr() }

// Location returns the shuffle location reducers fetch from. Service is
// set so the tracker never forgets these outputs on executor loss.
func (s *Service) Location() shuffle.Location {
	return shuffle.Location{ExecID: s.id, Addr: s.env.Addr(), Service: true}
}

// BlockManager exposes the service's block store (diagnostics and tests).
func (s *Service) BlockManager() *storage.BlockManager { return s.bm }

// SetBus wires the observability bus the service emits push/merge/serve
// events on. Nil-safe (a nil bus drops everything).
func (s *Service) SetBus(b *obs.Bus) { s.bus.Store(b) }

// SetMergeEnabled toggles push-merge. With merging off the service still
// accepts pushes and serves individual blocks, but merged-run fetches
// miss, exercising the manager's per-block fallback path.
func (s *Service) SetMergeEnabled(on bool) { s.mergeEnabled.Store(on) }

// HandlePush adapts Push to the rpc.Env push-handler signature.
func (s *Service) HandlePush(m *rpc.PushBlockRequest, vt vtime.Stamp) ([]byte, error) {
	return s.Push(m.ShuffleID, m.MapID, m.ReduceID, m.Body, m.Sum, vt)
}

// Push ingests one committed map-output block. The body is verified
// against the writer's CRC32C at ingest — a push corrupted in flight is
// rejected before it can poison the merged run, and the rejection fails
// the map task's push so the normal task retry re-sends it. Re-pushing a
// block the service already holds is idempotent: it acks AckDuplicate and
// counts nothing, so a map-task retry cannot double-merge its output.
func (s *Service) Push(shuffleID, mapID, reduceID int, body []byte, sum uint32, vt vtime.Stamp) ([]byte, error) {
	if shuffle.Checksum(body) != sum {
		metrics.GetCounter(shuffle.CounterCorruptDetected).Add(1)
		s.bus.Load().Emit(obs.Event{
			Type: obs.EvBlockCorrupt, VT: vt,
			ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID,
			Executor: s.id,
			Err:      "push body checksum mismatch",
		})
		return nil, &shuffle.CorruptBlockError{
			ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID,
			Want: sum, Got: shuffle.Checksum(body),
		}
	}
	id := storage.ShuffleBlockID(shuffleID, mapID, reduceID)
	key := mergeKey{shuffle: shuffleID, reduce: reduceID}
	s.mu.Lock()
	if _, dup := s.bm.Get(id); dup {
		s.mu.Unlock()
		return []byte(AckDuplicate), nil
	}
	s.bm.Put(id, body)
	ms := s.merges[key]
	if ms == nil {
		ms = &mergeState{}
		s.merges[key] = ms
	}
	ms.blocks = slices.Insert(ms.blocks, ms.search(mapID), pushedBlock{mapID: mapID, body: body})
	ms.pushed += len(body)
	ms.run = nil
	s.mu.Unlock()
	metrics.GetCounter(CounterPushedBytes).Add(int64(len(body)))
	s.bus.Load().Emit(obs.Event{
		Type: obs.EvShufflePush, VT: vt,
		ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID,
		Bytes: len(body), Executor: s.id,
	})
	return []byte(AckPushed), nil
}

// Resolve is the service's block resolver: merged-run ids materialize (or
// return the cached) locality-sorted run, the pushed blocks back to back
// with no frame, which reducers split by the sizes their map statuses
// carry; anything else is looked up in the pushed-block store. Every hit
// counts the bytes served.
func (s *Service) Resolve(blockID string) ([]byte, bool) {
	if shuffleID, reduceID, lo, hi, ok := shuffle.ParseRangedMergedBlockID(blockID); ok {
		if !s.mergeEnabled.Load() {
			return nil, false
		}
		run, ok := s.rangedRun(shuffleID, reduceID, lo, hi)
		if !ok {
			return nil, false
		}
		metrics.GetCounter(CounterServedBytes).Add(int64(len(run)))
		s.bus.Load().Emit(obs.Event{
			Type:      obs.EvShuffleServe,
			ShuffleID: shuffleID, ReduceID: reduceID,
			MapLo: lo, MapHi: hi,
			Bytes: len(run), Executor: s.id,
		})
		return run, true
	}
	if shuffleID, reduceID, ok := shuffle.ParseMergedBlockID(blockID); ok {
		if !s.mergeEnabled.Load() {
			return nil, false
		}
		run, ok := s.mergedRun(shuffleID, reduceID)
		if !ok {
			return nil, false
		}
		metrics.GetCounter(CounterServedBytes).Add(int64(len(run)))
		s.bus.Load().Emit(obs.Event{
			Type:      obs.EvShuffleServe,
			ShuffleID: shuffleID, ReduceID: reduceID,
			Bytes: len(run), Executor: s.id,
		})
		return run, true
	}
	data, ok := s.bm.Get(storage.BlockID(blockID))
	if !ok {
		return nil, false
	}
	ev := obs.Event{Type: obs.EvShuffleServe, Bytes: len(data), Executor: s.id}
	ev.ShuffleID, ev.MapID, ev.ReduceID, _ = storage.ParseShuffleBlockID(blockID) // only pushed shuffle blocks are stored
	metrics.GetCounter(CounterServedBytes).Add(int64(len(data)))
	s.bus.Load().Emit(ev)
	return data, true
}

// readMerged is what every merged read of one reduce partition shares:
// under the lock, pick chooses the run to serve; then the bytes pushed since
// the partition's last read are counted as merged. Merge accounting is thus
// a delta of pushed bytes, independent of which runs get built: it happens
// exactly once per pushed byte no matter how many full or ranged reads
// follow, so merged_bytes reconciles with pushed_bytes instead of
// multiplying.
func (s *Service) readMerged(shuffleID, reduceID int, pick func(*mergeState) []byte) (run []byte, ok bool) {
	s.mu.Lock()
	ms := s.merges[mergeKey{shuffle: shuffleID, reduce: reduceID}]
	if ms == nil || len(ms.blocks) == 0 {
		s.mu.Unlock()
		return nil, false
	}
	run = pick(ms)
	delta := ms.pushed - ms.counted
	ms.counted = ms.pushed
	s.mu.Unlock()
	if delta > 0 {
		metrics.GetCounter(CounterMergedBytes).Add(int64(delta))
		s.bus.Load().Emit(obs.Event{
			Type:      obs.EvShuffleMerge,
			ShuffleID: shuffleID, ReduceID: reduceID,
			Bytes: delta, Executor: s.id,
		})
	}
	return run, true
}

// mergedRun returns the merged run of one reduce partition, (re)building it
// if pushes landed since the last build.
func (s *Service) mergedRun(shuffleID, reduceID int) (run []byte, ok bool) {
	return s.readMerged(shuffleID, reduceID, func(ms *mergeState) []byte {
		if ms.run == nil {
			ms.run = ms.concat(0, math.MaxInt)
		}
		return ms.run
	})
}

// rangedRun returns the [mapLo, mapHi) slice of one reduce partition's
// merged run. The slice is built on demand and never cached — split
// fan-out makes each range typically fetched once — and the full run is
// not built for it: a partition only ever read in ranges never
// materializes one.
func (s *Service) rangedRun(shuffleID, reduceID, mapLo, mapHi int) (run []byte, ok bool) {
	return s.readMerged(shuffleID, reduceID, func(ms *mergeState) []byte {
		return ms.concat(mapLo, mapHi)
	})
}
