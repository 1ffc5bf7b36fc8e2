package spark

import (
	"sync/atomic"
	"time"

	"mpi4spark/internal/vtime"
)

// CPUModel holds the per-operation compute cost coefficients used to charge
// virtual time for record processing. One model applies per cluster
// profile (it encodes the simulated node's core speed).
type CPUModel struct {
	// NsPerRecord is the cost of touching one record (iterator overhead,
	// function call, hashing).
	NsPerRecord float64
	// NsPerByte is the cost of serializing/deserializing or copying one
	// byte.
	NsPerByte float64
	// SortNsPerCmp is the cost of one comparison during sorting.
	SortNsPerCmp float64
}

// DefaultCPUModel approximates a ~2.5 GHz Xeon core running JVM Spark.
func DefaultCPUModel() CPUModel {
	return CPUModel{NsPerRecord: 60, NsPerByte: 0.25, SortNsPerCmp: 15}
}

// cacheKey identifies a cached RDD partition.
type cacheKey struct {
	rddID int
	part  int
}

// TaskContext is the per-task runtime handed to compute functions: it owns
// the task's virtual clock, charges modeled compute costs, and provides
// shuffle reads through the hosting executor.
type TaskContext struct {
	StageID   int
	Partition int

	exec *Executor
	vt   vtime.Stamp
	cpu  CPUModel

	recordsRead    int64
	bytesLocal     int64 // shuffle bytes read from the local block manager
	bytesRemote    int64 // shuffle bytes fetched over the network
	newlyCached    []cacheKey
	shuffleWaitDur vtime.Stamp // cumulative time the task clock stalled on shuffle fetches

	// issueVT is when the task's next read of a new shuffle is issued: the
	// task's start, then each such read's tracker reply in turn. Spark
	// creates every shuffle reader of a task (a join's sides, a zip's
	// inputs) before it consumes a record, each creation blocking on its
	// tracker ask, and a reader sends its fetches when it is created.
	// prevShuffle is the shuffle of the task's previous read, -1 before
	// the first: a coalesced task's next partition of the same shuffle is
	// read when the task gets to it.
	issueVT     vtime.Stamp
	prevShuffle int

	// share is the task's part of an adapted result stage. A split
	// sub-task's FetchShuffle calls against share.shuffle read only map ids
	// [share.mapLo, share.mapHi); other shuffles (a join's second side, say)
	// are unaffected, but the planner only splits single-shuffle-dependency
	// stages in the first place.
	share physTask

	// slot is the executor slot the task holds (nil driver-side and in
	// tests); carved is how much of its scratch the task has taken.
	slot   *slot
	carved int
}

// ExecutorID returns the id of the executor running this task.
func (tc *TaskContext) ExecutorID() string {
	if tc.exec == nil {
		return ""
	}
	return tc.exec.id
}

// Observe advances the task clock to at least vt.
func (tc *TaskContext) Observe(vt vtime.Stamp) {
	if vt > tc.vt {
		tc.vt = vt
	}
}

// Charge adds modeled compute cost, stretched by the threads that spin on
// the executor's node (the Basic design's polling selectors).
func (tc *TaskContext) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	f := 1.0
	if tc.exec != nil {
		f = tc.exec.node.ComputeStretch()
	}
	tc.vt = tc.vt.Add(time.Duration(float64(d) * f))
}

// indices returns n int32s for the task's per-record index arrays, carved
// from its slot's scratch: the tasks a slot runs reuse one array, as Spark's
// task threads reuse their executor's memory pages. Nothing carved may
// outlive the task, and the contents are unspecified. A scratch too short
// is replaced by one that holds everything the task has carved, so that the
// slot's next such task carves without allocating; what is already carved
// stays in the old one. A context with no slot (a driver-side merge, a
// test) allocates.
func (tc *TaskContext) indices(n int) []int32 {
	s := tc.slot
	if s == nil {
		return make([]int32, n)
	}
	lo, hi := tc.carved, tc.carved+n
	if hi > len(s.scratch) {
		s.scratch = make([]int32, max(2*len(s.scratch), hi))
	}
	tc.carved = hi
	return s.scratch[lo:hi:hi]
}

// ChargeRecords charges the standard per-record plus per-byte cost for
// processing n records spanning the given bytes.
func (tc *TaskContext) ChargeRecords(n int, bytes int) {
	tc.recordsRead += int64(n)
	tc.Charge(time.Duration(tc.cpu.NsPerRecord*float64(n) + tc.cpu.NsPerByte*float64(bytes)))
}

// ChargeSort charges an n·log₂(n) comparison-sort cost for n records.
func (tc *TaskContext) ChargeSort(n int) {
	if n < 2 {
		return
	}
	log2 := 0
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	tc.Charge(time.Duration(tc.cpu.SortNsPerCmp * float64(n) * float64(log2)))
}

// FetchShuffle retrieves every map output block destined for reduceID in
// the given shuffle. A read of a shuffle other than the task's previous
// read was issued when the task started (see issueVT); a read of the same
// shuffle again is issued now. The task clock observes the last block's
// landing, and the time it stalls for that landing, past the tracker
// reply, counts as fetch wait. It returns the raw serialized batches in
// map-id order. The blocks are immutable, garbage-collected slices, valid
// for as long as they are referenced; values decoded from them are
// read-only and may pin their block (see Codec).
func (tc *TaskContext) FetchShuffle(shuffleID, reduceID int) ([][]byte, error) {
	e := tc.exec
	at, early := tc.vt, shuffleID != tc.prevShuffle
	if early {
		at = tc.issueVT
	}
	statuses, asked, err := e.tracker.GetOutputs(shuffleID, at)
	if err != nil {
		return nil, err
	}
	if early {
		tc.issueVT, tc.prevShuffle = asked, shuffleID
	}
	tc.Observe(asked)
	lo, hi := 0, len(statuses)
	if tc.share.ranged() && shuffleID == tc.share.shuffle {
		lo, hi = tc.share.mapLo, tc.share.mapHi
	}
	results, landed, err := e.sm.FetchShuffleRange(shuffleID, reduceID, statuses, e.id, e.bts, asked, lo, hi)
	if err != nil {
		return nil, err
	}
	tc.shuffleWaitDur += max(landed-tc.vt, 0)
	tc.Observe(landed)
	out := make([][]byte, len(results))
	for i, r := range results {
		out[i] = r.Data
		if r.Local {
			tc.bytesLocal += int64(len(r.Data))
		} else {
			tc.bytesRemote += int64(len(r.Data))
		}
	}
	return out, nil
}

// Dependency is an edge in the RDD lineage graph.
type Dependency interface {
	parentRDD() rddBase
}

// narrowDep is a one-to-one partition dependency (map, filter, flatMap, each
// input of a zip): partition p reads partition p of its parent.
type narrowDep struct{ parent rddBase }

func (d narrowDep) parentRDD() rddBase { return d.parent }

// rangeDep is a union's dependency on one input: a range of the child's
// partitions maps onto the parent's, so partition p of the child is not
// partition p of the parent.
type rangeDep struct{ parent rddBase }

func (d rangeDep) parentRDD() rddBase { return d.parent }

// ShuffleDep is a wide dependency: the child's partitions depend on all
// parent partitions through a shuffle.
type ShuffleDep struct {
	shuffleID int
	parent    rddBase
	numReduce int
	// write partitions and serializes one parent partition's output into
	// per-reduce blocks — the map side of the shuffle.
	write func(data any, tc *TaskContext) [][]byte
}

func (d *ShuffleDep) parentRDD() rddBase { return d.parent }

// rddBase is the type-erased RDD view the scheduler operates on.
type rddBase interface {
	rddID() int
	partitions() int
	dependencies() []Dependency
	isCached() bool
	// computePartition materializes one partition (as a []T boxed in any).
	computePartition(part int, tc *TaskContext) (any, error)
	// records reports how many records a materialized partition holds.
	records(data any) int
	// canSplit reports whether a partition of this RDD may be computed as
	// disjoint map-range sub-tasks and reassembled with mergePartials.
	// Only shuffle-reading RDDs whose per-key result is recoverable from
	// partial results set this (groupByKey, reduceByKey, sortByKey,
	// repartition); a join cannot, since each side's range slice would
	// miss matches against the other side's complement.
	canSplit() bool
	// mergePartials reassembles a partition from its sub-task results,
	// given in map-range order. Charged against tc.
	mergePartials(tc *TaskContext, parts []any) any
	// preferredLoc reports the executor a partition is pinned to ("" =
	// no static preference). Streaming receiver blocks set it so tasks
	// run where the data already lives; the scheduler still falls back to
	// any executor when the pinned one is excluded or lost.
	preferredLoc(part int) string
}

// RDD is a resilient distributed dataset of T: a lazy, partitioned
// collection defined by its lineage.
type RDD[T any] struct {
	ctx    *Context
	id     int
	nParts int
	// deps is read on the driver only, and a local checkpoint's lineage
	// cut clears it (checkpoint.go).
	deps    []Dependency
	compute func(part int, tc *TaskContext) ([]T, error)
	// cached is read by tasks and cleared by Unpersist on the driver.
	cached atomic.Bool
	// partialMerge, when set, reassembles one partition from the results
	// of map-range sub-tasks (in map order) — the hook that makes the RDD
	// splittable by the adaptive planner.
	partialMerge func(tc *TaskContext, parts [][]T) []T
	// prefFn, when set, maps a partition to the executor it is pinned to
	// (see rddBase.preferredLoc).
	prefFn func(part int) string
}

func newRDD[T any](ctx *Context, nParts int, deps []Dependency, compute func(int, *TaskContext) ([]T, error)) *RDD[T] {
	return &RDD[T]{ctx: ctx, id: ctx.nextRDDID(), nParts: nParts, deps: deps, compute: compute}
}

// NumPartitions returns the RDD's partition count.
func (r *RDD[T]) NumPartitions() int { return r.nParts }

// Cache marks the RDD for in-memory caching: the first job that computes a
// partition stores it on the computing executor, and later stages schedule
// onto those executors (locality), mirroring MEMORY_ONLY persistence.
func (r *RDD[T]) Cache() *RDD[T] {
	r.cached.Store(true)
	return r
}

// Unpersist stops caching the RDD and drops its cached partitions from
// every executor and from the driver's record of where they live, as
// Spark's non-blocking unpersist does (its RemoveRdd messages are not
// modelled). A later job that needs a partition recomputes it, unless
// the RDD is a local checkpoint whose lineage is cut (LocalCheckpoint).
func (r *RDD[T]) Unpersist() {
	if r.cached.Swap(false) {
		r.ctx.uncache(r.id, r.nParts)
	}
}

func (r *RDD[T]) rddID() int                 { return r.id }
func (r *RDD[T]) partitions() int            { return r.nParts }
func (r *RDD[T]) dependencies() []Dependency { return r.deps }
func (r *RDD[T]) isCached() bool             { return r.cached.Load() }

func (r *RDD[T]) records(data any) int {
	if data == nil {
		return 0
	}
	return len(data.([]T))
}

func (r *RDD[T]) canSplit() bool { return r.partialMerge != nil }

func (r *RDD[T]) preferredLoc(part int) string {
	if r.prefFn == nil {
		return ""
	}
	return r.prefFn(part)
}

// WithPreferred pins each partition to an executor id: task placement
// prefers locs[part] (falling back to round-robin when that executor is
// excluded or lost). Partitions beyond len(locs) keep no preference.
// It returns the receiver for chaining.
func (r *RDD[T]) WithPreferred(locs []string) *RDD[T] {
	r.prefFn = func(part int) string {
		if part < 0 || part >= len(locs) {
			return ""
		}
		return locs[part]
	}
	return r
}

func (r *RDD[T]) mergePartials(tc *TaskContext, parts []any) any {
	typed := make([][]T, len(parts))
	for i, p := range parts {
		if p != nil {
			typed[i] = p.([]T)
		}
	}
	return r.partialMerge(tc, typed)
}

func (r *RDD[T]) computePartition(part int, tc *TaskContext) (any, error) {
	out, err := r.partition(part, tc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// partition is computePartition typed: a narrow transformation reads its
// parent through it, so a partition is boxed once, where the scheduler
// takes it, and not at every step of a chain.
func (r *RDD[T]) partition(part int, tc *TaskContext) ([]T, error) {
	// A ranged sub-task sees only a slice of the partition; caching it
	// would poison later full reads, and a cached full partition would
	// defeat the split. Bypass the cache entirely for ranged compute.
	cached := r.cached.Load() && tc.exec != nil && !tc.share.ranged()
	if cached {
		if v, ok := tc.exec.getCached(r.id, part); ok {
			// Cached read: charge a light in-memory scan.
			tc.Charge(time.Duration(float64(r.records(v)) * tc.cpu.NsPerRecord / 4))
			return v.([]T), nil
		}
	}
	out, err := r.compute(part, tc)
	if err != nil {
		return nil, err
	}
	if cached {
		tc.exec.putCached(r.id, part, out)
		tc.newlyCached = append(tc.newlyCached, cacheKey{rddID: r.id, part: part})
	}
	return out, nil
}
