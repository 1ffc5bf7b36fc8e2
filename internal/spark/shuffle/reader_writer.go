package shuffle

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/vtime"
)

// DefaultChunkBytes bounds one reply chunk of a batched fetch when the
// manager is not configured (spark.Config.ShuffleChunkBytes).
const DefaultChunkBytes = 1 << 20

// The modelled cost of reading one local block: a fixed cost plus a
// per-byte one (a RAM-disk read in the paper's configuration).
const (
	localReadCost      = 2 * time.Microsecond
	localReadNsPerByte = 0.15
)

// DefaultMaxBytesInFlight bounds the total declared size of batched
// requests in flight per reduce task, mirroring Spark's
// spark.reducer.maxBytesInFlight default of 48 MiB.
const DefaultMaxBytesInFlight = 48 << 20

// The counters every fetched block bumps, as handles: looked up by name they
// cost the registry's lock and a hash per block. The failure, retry and
// breaker paths look theirs up where they count.
var (
	fetchBytesLocal    = metrics.GetCounter("shuffle.fetch.bytes_local")
	fetchBytesRemote   = metrics.GetCounter("shuffle.fetch.bytes_remote")
	fetchRequests      = metrics.GetCounter("shuffle.fetch.requests")
	fetchBatchedBlocks = metrics.GetCounter("shuffle.fetch.batched_blocks")
	fetchMergedRuns    = metrics.GetCounter("shuffle.fetch.merged_runs")
	trackerAsks        = metrics.GetCounter("shuffle.tracker.asks")
	trackerReplyBytes  = metrics.GetCounter("shuffle.tracker.reply_bytes")
	integrityChecked   = metrics.GetCounter(CounterIntegrityChecked)
)

// Manager is the executor-side sort-shuffle manager: it writes each map
// output, its per-reduce-partition blocks, into the local block manager as
// one entry and reads reduce inputs through the fetcher.
type Manager struct {
	bm *storage.BlockManager
	// Retry bounds remote fetches (retries, backoff, per-attempt
	// deadline).
	Retry RetryPolicy
	// ChunkBytes bounds one reply chunk of a batched fetch.
	ChunkBytes int
	// MaxBytesInFlight bounds the declared bytes of outstanding batched
	// requests per reduce task (a single batch larger than the budget is
	// still allowed to fly alone). Nothing configures it; it is a field so
	// that a test can make the gate bind (TestBytesInFlightGate).
	MaxBytesInFlight int64
	// BreakerThreshold trips the per-peer circuit breaker after that many
	// consecutive failed attempts against one peer (0 disables the
	// threshold).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe (defaults to defaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Bus receives BlockCorrupt events on checksum mismatches (nil-safe).
	Bus *obs.Bus

	brMu    sync.Mutex
	brPeers map[string]*peerState
}

// DefaultBreakerThreshold trips a peer's circuit breaker after 12
// consecutive failures against it: comfortably above one block's full retry
// schedule, so the breaker only opens when a peer is failing broadly.
const DefaultBreakerThreshold = 12

// NewManager creates a shuffle manager over the executor's block manager.
func NewManager(bm *storage.BlockManager) *Manager {
	return &Manager{
		bm:               bm,
		Retry:            DefaultRetryPolicy(),
		ChunkBytes:       DefaultChunkBytes,
		MaxBytesInFlight: DefaultMaxBytesInFlight,
		BreakerThreshold: DefaultBreakerThreshold,
	}
}

// WriteMapOutput stores the partitioned, serialized output of one map task
// (parts[r] is the block destined for reducer r) and returns the MapStatus
// to register with the driver. loc identifies the owning executor. Every
// partition's CRC32C is computed here, at the only moment the bytes are
// known good, and travels with the status. The output is one store entry,
// which keeps parts: neither it nor its blocks may change afterwards.
func (m *Manager) WriteMapOutput(shuffleID, mapID int, parts [][]byte, loc Location) *MapStatus {
	sizes := make([]int64, len(parts))
	sums := make([]uint32, len(parts))
	for r, p := range parts {
		sizes[r] = int64(len(p))
		sums[r] = Checksum(p)
	}
	m.bm.PutMapOutput(shuffleID, mapID, parts)
	return &MapStatus{Loc: loc, Sizes: sizes, Sums: sums}
}

// FetchResult is one fetched shuffle block.
type FetchResult struct {
	MapID int
	Data  []byte
	// Local marks a block read from the executor's own block manager
	// rather than fetched over the network, mirroring the
	// shuffle.fetch.bytes_{local,remote} counter split so per-task byte
	// accounting matches the counters exactly.
	Local bool
	// Release is always nil: Data is an immutable garbage-collected slice,
	// valid for as long as it is referenced. The field exists for bench/,
	// which nil-checks it; a later benchmark PR may drop it.
	Release func()
}

// remoteBlock is one block of a per-peer batch. id is its name, sum the
// write-time CRC32C from the map status, and peer numbers its executor in
// the order the reduce task first needs each.
type remoteBlock struct {
	mapID int
	id    string
	size  int64
	loc   Location
	sum   uint32
	peer  int
}

// FetchShuffleParts retrieves every map output destined for reduceID:
// local blocks straight from the block manager, remote blocks through bts.
// selfID is the calling executor. It returns the blocks (indexed by map id)
// and the virtual time at which the last block is available — the shuffle
// read time that dominates the paper's Job1-ResultStage.
//
// Remote blocks are grouped by serving executor and fetched as one batched
// request per peer (Spark's OpenBlocks/FetchShuffleBlocks coalescing),
// launched under the MaxBytesInFlight budget. Within a batch, failures are
// per block: a failed block falls back to individually retried fetches per
// RetryPolicy while its landed siblings keep their data. Once any block is
// declared lost the fetch aborts early: no new batches launch, in-flight
// work skips its remaining retries, and the first failure — a
// *FetchFailedError naming the lost map output — is returned after every
// outstanding goroutine has drained (no goroutine outlives the call).
func (m *Manager) FetchShuffleParts(
	shuffleID, reduceID int,
	statuses []*MapStatus,
	selfID string,
	bts BlockTransferService,
	at vtime.Stamp,
) ([]FetchResult, vtime.Stamp, error) {
	return m.FetchShuffleRange(shuffleID, reduceID, statuses, selfID, bts, at, 0, len(statuses))
}

// FetchShuffleRange is FetchShuffleParts restricted to map outputs with
// ids in the half-open range [mapLo, mapHi) — the read primitive behind
// skew splitting, where each sub-task of an oversized reduce partition
// fetches a disjoint map-range slice. Results stay indexed by global map
// id; entries outside the range are zero (empty Data), which downstream
// decoding already skips. A service group's merged run is asked for by the
// id that names this range of it; the per-block path is inherently ranged.
func (m *Manager) FetchShuffleRange(
	shuffleID, reduceID int,
	statuses []*MapStatus,
	selfID string,
	bts BlockTransferService,
	at vtime.Stamp,
	mapLo, mapHi int,
) ([]FetchResult, vtime.Stamp, error) {
	if mapLo < 0 {
		mapLo = 0
	}
	if mapHi > len(statuses) {
		mapHi = len(statuses)
	}
	// Validate the metadata upfront: a nil status means the tracker's
	// view is already missing this map output, and a status with no
	// partition reduceID cannot be read; each is a fetch failure in its own
	// right (zero Loc — nothing to unregister). Only the requested range
	// matters to this task. The same pass numbers the peers in
	// first-appearance order (kept deterministic for the virtual-time
	// schedule) and counts each one's remote blocks, so that their slice is
	// sized once and grouped as it is filled.
	peers := make([]string, 0, 8) // executor of each peer index
	starts := make([]int, 0, 8)   // each peer's remote blocks; then where its next one goes
	for mapID := mapLo; mapID < mapHi; mapID++ {
		st := statuses[mapID]
		if st == nil || reduceID < 0 || reduceID >= len(st.Sizes) {
			err := fmt.Errorf("no registered map output")
			if st != nil {
				err = fmt.Errorf("map output has %d partitions, none numbered %d", len(st.Sizes), reduceID)
			}
			return nil, at, &FetchFailedError{ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID, Err: err}
		}
		if st.Sizes[reduceID] != 0 && st.Loc.ExecID != selfID {
			peer := slices.Index(peers, st.Loc.ExecID)
			if peer < 0 {
				peer, peers, starts = len(peers), append(peers, st.Loc.ExecID), append(starts, 0)
			}
			starts[peer]++
		}
	}
	remote := 0
	for i, n := range starts {
		starts[i], remote = remote, remote+n
	}

	// Budget gate: batches launch while their declared bytes fit in
	// MaxBytesInFlight; an oversize batch flies once nothing else does.
	budget := m.MaxBytesInFlight
	if budget <= 0 {
		budget = DefaultMaxBytesInFlight
	}
	f := &fetchState{results: make([]FetchResult, len(statuses)), maxVT: at}
	f.cond.L = &f.mu

	// Pass 1: local reads, and the remote blocks placed in map order after
	// the blocks of their peer that came before, so that each peer's blocks
	// are together and the peers in first-appearance order. A local block is
	// looked up by its numbers; every remote one is named from one string.
	var names storage.ShuffleBlockIDs
	names.Grow(remote, shuffleID, mapHi-1, reduceID)
	blocks := make([]remoteBlock, remote)
	var merged storage.BlockID
	for mapID := mapLo; mapID < mapHi; mapID++ {
		st := statuses[mapID]
		if st.Sizes[reduceID] == 0 {
			f.results[mapID] = FetchResult{MapID: mapID, Data: nil}
			continue
		}
		if st.Loc.ExecID == selfID {
			// Local block: no network, only the local read cost.
			data, ok := m.bm.MapOutputBlock(shuffleID, mapID, reduceID)
			if !ok {
				f.fail(&FetchFailedError{
					ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID, Loc: st.Loc,
					Err: fmt.Errorf("local block %s missing", storage.ShuffleBlockID(shuffleID, mapID, reduceID)),
				})
				break
			}
			cost := localReadCost + time.Duration(localReadNsPerByte*float64(len(data)))
			f.observe(at.Add(cost))
			fetchBytesLocal.Add(int64(len(data)))
			f.results[mapID] = FetchResult{MapID: mapID, Data: data, Local: true}
			continue
		}
		peer := slices.Index(peers, st.Loc.ExecID)
		if st.Loc.Service && merged == "" {
			// The merged run a service group asks for first: the whole
			// partition, or for a sub-task the block that is its map range of it.
			merged = MergedBlockID(shuffleID, reduceID)
			if mapLo > 0 || mapHi < len(statuses) {
				merged = RangedMergedBlockID(shuffleID, reduceID, mapLo, mapHi)
			}
		}
		blocks[starts[peer]] = remoteBlock{
			mapID: mapID, id: string(names.ID(shuffleID, mapID, reduceID)), size: st.Sizes[reduceID], loc: st.Loc,
			sum: st.Sums[reduceID], peer: peer,
		}
		starts[peer]++
	}
	if f.firstErr != nil {
		return nil, at, f.firstErr // a local block is missing: fetch nothing
	}
	// The batches' wire form is built once, for the task.
	ids := make([]string, len(blocks))
	for i, b := range blocks {
		ids[i] = b.id
	}

	// Pass 2: one batched request per peer, admitted by the byte budget.
	for lo, hi := 0, 0; lo < len(blocks); lo = hi {
		var batchBytes int64
		for hi = lo; hi < len(blocks) && blocks[hi].peer == blocks[lo].peer; hi++ {
			batchBytes += blocks[hi].size
		}
		if !f.admit(batchBytes, budget) {
			break
		}
		batch, batchIDs := blocks[lo:hi], ids[lo:hi]
		f.fetchers.Go(func() error {
			defer f.release(batchBytes)
			m.fetchBatch(f, shuffleID, reduceID, merged, batch, batchIDs, bts, at)
			return nil
		})
	}
	f.fetchers.Wait()
	if f.firstErr != nil {
		return nil, at, f.firstErr
	}
	return f.results, f.maxVT, nil
}

// fetchState is what one reduce task's batches share while they fly: the
// results, the latest arrival, the first failure (which aborts the rest)
// and the bytes in flight under the budget. One object per fetch.
type fetchState struct {
	results  []FetchResult // indexed by map id
	fetchers vtime.Group   // one per admitted batch; each fails the fetch itself

	mu       sync.Mutex
	cond     sync.Cond // on mu: budget released or fetch aborted
	maxVT    vtime.Stamp
	firstErr error
	aborted  bool
	inFlight int64
}

// observe advances the fetch's completion to at least vt.
func (f *fetchState) observe(vt vtime.Stamp) {
	f.mu.Lock()
	if vt > f.maxVT {
		f.maxVT = vt
	}
	f.mu.Unlock()
}

// abortedNow reports whether a block has been declared lost.
func (f *fetchState) abortedNow() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aborted
}

// fail records err if it is the first failure, and aborts the fetch.
func (f *fetchState) fail(err error) {
	f.mu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
		f.aborted = true
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// admit waits until a batch of the given bytes fits the budget beside those
// in flight (a batch flies alone whatever its size) and counts its bytes in
// until its release; it reports false, admitting nothing, once the fetch has
// aborted.
func (f *fetchState) admit(bytes, budget int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.aborted && f.inFlight > 0 && f.inFlight+bytes > budget {
		f.cond.Wait()
	}
	if f.aborted {
		return false
	}
	f.inFlight += bytes
	return true
}

// release ends an admitted batch: its bytes leave the budget.
func (f *fetchState) release(bytes int64) {
	f.mu.Lock()
	f.inFlight -= bytes
	f.mu.Unlock()
	f.cond.Broadcast()
}

// fetchBatch is one peer's share of a reduce task's fetch, and the whole of
// the remote data path: request, settle, retry as a batch of one. The first
// attempt asks for every block in one request; each block of the reply is
// settled, and one that did not land is asked for again on its own, up to
// Retry.MaxRetries times. Backoff and deadline accounting advance the
// attempt's virtual-time stamp only (no wall-clock sleeping), so the
// schedule is deterministic; each backoff carries deterministic jitter so
// sibling reducers retrying one peer after a flap decorrelate instead of
// stampeding. A refetch at a later stamp draws fresh network verdicts. Once a
// sibling fetch has declared a block lost (abortedNow) the remaining retries
// are skipped. A block out of retries, or refused by the peer's open breaker
// on a retry, fails the task onto the degradation chain (FetchFailedError,
// service blacklist, map-stage recompute).
//
// Breaker accounting, per attempt: a request that fails as a whole (connect,
// shutdown) charges the peer once, however many blocks it carried; a block
// that fails inside the first, batched attempt does not charge it (its
// siblings may have landed from the same healthy peer), the same failure on
// a retry does; every landed block resets it. An open breaker refuses the
// first attempt without traffic and leaves its blocks to their retries, whose
// backoff may outlast the cooldown.
func (m *Manager) fetchBatch(
	f *fetchState,
	shuffleID, reduceID int,
	merged storage.BlockID,
	blocks []remoteBlock,
	ids []string,
	bts BlockTransferService,
	at vtime.Stamp,
) {
	if f.abortedNow() {
		return
	}
	loc := blocks[0].loc
	// A group served by an external shuffle service is first tried as a
	// single merged-run fetch — one sequential read replaces the per-map
	// block batch. A miss (merging disabled, a run of another length, a
	// corrupt block) falls through to the ordinary per-block path, which the
	// service also serves, issued once the miss is known.
	if loc.Service {
		hit, missAt := m.fetchMergedRun(f, shuffleID, reduceID, merged, blocks, bts, at)
		if hit {
			return
		}
		at = missAt
	}
	fetchRequests.Inc()
	fetchBatchedBlocks.Add(int64(len(blocks)))
	var rs []rpc.BatchBlockResult
	err := m.breakerAllow(loc.ExecID, at)
	if err == nil {
		if rs, _, err = bts.Fetch(loc, ids, m.ChunkBytes, at); err != nil {
			m.breakerFailure(loc.ExecID, at)
		}
	}
	settled := 0
	defer func() {
		// A batch that gives up early still verifies what its first attempt
		// landed: a corrupt body is a detection whether or not a task uses it.
		for j := settled; j < len(rs); j++ {
			if rs[j].Err == nil {
				m.verifyBlock(shuffleID, reduceID, blocks[j], rs[j].Data, rs[j].VT)
			}
		}
	}()
	for i, blk := range blocks {
		r := rpc.BatchBlockResult{VT: at, Err: err} // the request never flew
		if err == nil {
			r = rs[i]
		}
		r = m.settle(shuffleID, reduceID, blk, r, at, false)
		settled = i + 1
		if f.abortedNow() {
			return
		}
		attemptAt := at
		for attempt := 1; r.Err != nil && attempt <= m.Retry.MaxRetries && !f.abortedNow(); attempt++ {
			wait := m.Retry.backoff(attempt)
			if j := m.Retry.jitter(blk.id, attempt); j > 0 {
				metrics.GetCounter(CounterRetryJitterVT).Add(int64(j))
				wait += j
			}
			attemptAt = vtime.Max(attemptAt, r.VT).Add(wait)
			metrics.GetCounter("shuffle.fetch.retries").Inc()
			if berr := m.breakerAllow(loc.ExecID, attemptAt); berr != nil {
				r.Err = berr
				break
			}
			fetchRequests.Inc()
			one, _, ferr := bts.Fetch(loc, ids[i:i+1], m.ChunkBytes, attemptAt)
			r = rpc.BatchBlockResult{VT: attemptAt, Err: ferr}
			if ferr == nil {
				r = one[0]
			}
			r = m.settle(shuffleID, reduceID, blk, r, attemptAt, true)
		}
		if r.Err != nil {
			metrics.GetCounter("shuffle.fetch.failures").Inc()
			f.fail(&FetchFailedError{
				ShuffleID: shuffleID, MapID: blk.mapID, ReduceID: reduceID, Loc: blk.loc,
				Err: r.Err,
			})
			return
		}
		f.observe(r.VT)
		fetchBytesRemote.Add(int64(len(r.Data)))
		f.results[blk.mapID] = FetchResult{MapID: blk.mapID, Data: r.Data}
	}
}

// settle judges what one attempt, issued at `at`, brought for blk, and does
// the attempt's accounting: integrity first, before the deadline can discard
// the body (a corrupt block that also arrived late must still be counted as
// a detected corruption, or injected and detected counts diverge); then the
// per-attempt deadline (the real fetcher would have timed the request out);
// then the peer's breaker, which a failure charges only when charge is set
// (see fetchBatch). A failed attempt comes back with its error and the stamp
// the next attempt's backoff starts from.
func (m *Manager) settle(shuffleID, reduceID int, blk remoteBlock, r rpc.BatchBlockResult, at vtime.Stamp, charge bool) rpc.BatchBlockResult {
	if r.Err == nil {
		if err := m.verifyBlock(shuffleID, reduceID, blk, r.Data, r.VT); err != nil {
			metrics.GetCounter(CounterIntegrityRefetches).Inc()
			r = rpc.BatchBlockResult{VT: r.VT, Err: err}
		} else if d := m.Retry.FetchDeadline; d > 0 && r.VT > at.Add(d) {
			metrics.GetCounter("shuffle.fetch.timeouts").Inc()
			r = rpc.BatchBlockResult{VT: at.Add(d), Err: fmt.Errorf("fetch %s from %s exceeded deadline %v", blk.id, blk.loc.ExecID, d)}
		}
	}
	switch {
	case r.Err == nil:
		m.breakerSuccess(blk.loc.ExecID)
	case charge:
		m.breakerFailure(blk.loc.ExecID, at)
	}
	return r
}

// verifyBlock checks a landed remote block against the CRC32C its map task
// recorded at write time. A mismatch counts, emits a BlockCorrupt event, and
// returns a retryable CorruptBlockError.
func (m *Manager) verifyBlock(shuffleID, reduceID int, blk remoteBlock, data []byte, vt vtime.Stamp) error {
	integrityChecked.Inc()
	got := Checksum(data)
	if got == blk.sum {
		return nil
	}
	metrics.GetCounter(CounterCorruptDetected).Inc()
	err := &CorruptBlockError{
		ShuffleID: shuffleID, MapID: blk.mapID, ReduceID: reduceID,
		Loc: blk.loc, Want: blk.sum, Got: got,
	}
	m.Bus.Emit(obs.Event{
		Type: obs.EvBlockCorrupt, VT: vt,
		ShuffleID: shuffleID, MapID: blk.mapID, ReduceID: reduceID,
		Executor: blk.loc.ExecID, Err: err.Error(),
	})
	return err
}

// fetchMergedRun fetches the service-side merged run id, which covers every
// block of one service group, and reports whether it satisfied the group;
// on a miss, also the stamp at which the reducer learned of it: when the run
// landed, when its deadline passed for a late run, or `at` for a request
// that failed as a whole.
// The run is the group's blocks back to back in map order, so it is split by
// their sizes and each piece verified against its sum; a run that fails
// either fills nothing, and the caller's per-block path owns the whole group.
// It is an opportunistic read that the per-block path backs, so it neither
// consults nor charges the peer's breaker.
func (m *Manager) fetchMergedRun(
	f *fetchState,
	shuffleID, reduceID int,
	id storage.BlockID,
	blocks []remoteBlock,
	bts BlockTransferService,
	at vtime.Stamp,
) (bool, vtime.Stamp) {
	fetchRequests.Inc()
	rs, _, err := bts.Fetch(blocks[0].loc, []string{string(id)}, m.ChunkBytes, at)
	if err != nil || len(rs) != 1 {
		return false, at
	}
	r := rs[0]
	landed := vtime.Max(at, r.VT)
	if r.Err != nil {
		return false, landed
	}
	if d := m.Retry.FetchDeadline; d > 0 && r.VT > at.Add(d) {
		metrics.GetCounter("shuffle.fetch.timeouts").Inc()
		return false, at.Add(d)
	}
	sizes := make([]int64, len(blocks))
	sums := make([]uint32, len(blocks))
	for i, blk := range blocks {
		sizes[i], sums[i] = blk.size, blk.sum
	}
	// The pieces alias the fetched run, which the results below keep alive.
	pieces, bad, ok := SplitMergedRun(r.Data, sizes, sums)
	if !ok {
		// A run of another length holds a block the tracker no longer
		// points at here (a map task that pushed, failed and ran again
		// elsewhere), or lacks one. That is a miss, not a corruption: a bit
		// flipped in flight never changes a run's length.
		return false, landed
	}
	if bad >= 0 {
		// Exactly one detection per landed run, however many of its blocks
		// a flip spans, keeps injected and detected counts reconciled; the
		// per-block fallback then re-verifies each block on its own.
		blk := blocks[bad]
		integrityChecked.Add(int64(bad + 1))
		metrics.GetCounter(CounterCorruptDetected).Inc()
		metrics.GetCounter(CounterIntegrityRefetches).Inc()
		cause := &CorruptBlockError{
			ShuffleID: shuffleID, MapID: blk.mapID, ReduceID: reduceID,
			Loc: blk.loc, Want: blk.sum, Got: Checksum(pieces[bad]),
		}
		m.Bus.Emit(obs.Event{
			Type: obs.EvBlockCorrupt, VT: r.VT,
			ShuffleID: shuffleID, ReduceID: reduceID,
			Executor: blk.loc.ExecID, Err: cause.Error(),
		})
		return false, landed
	}
	integrityChecked.Add(int64(len(blocks)))
	for i, blk := range blocks {
		f.results[blk.mapID] = FetchResult{MapID: blk.mapID, Data: pieces[i]}
	}
	f.observe(r.VT)
	fetchBytesRemote.Add(int64(len(r.Data)))
	fetchMergedRuns.Inc()
	return true, landed
}
