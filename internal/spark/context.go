package spark

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// Config configures a SparkContext. It carries what some caller varies;
// every other constant of a run lives beside the code that reads it
// (DESIGN.md §4.1 lists them).
type Config struct {
	// Name labels the application.
	Name string
	// CPU is the compute-cost model applied to all tasks.
	CPU CPUModel
	// DefaultParallelism is the partition count used when callers pass
	// numParts < 1.
	DefaultParallelism int
	// MaxStageAttempts bounds how many times a job re-runs its stages
	// after fetch failures (Spark's spark.stage.maxConsecutiveAttempts;
	// default 4). Each attempt resubmits only the map tasks whose outputs
	// were lost.
	MaxStageAttempts int
	// ShuffleChunkBytes bounds one reply chunk of a batched shuffle fetch
	// (spark.maxRemoteBlockSizeFetchToMem-flavored chunking). On the MPI
	// designs each chunk maps to one eager or rendezvous MPI message. Zero
	// means the transport's natural chunk: the MPI eager threshold under
	// the Optimized design (core.LaunchMPICluster), shuffle.DefaultChunkBytes
	// everywhere else.
	ShuffleChunkBytes int
	// ExternalShuffleService enables the per-worker external shuffle
	// service (spark.shuffle.service.enabled): map tasks push committed
	// blocks to their node-local service, map statuses point at the
	// service, and reducers fetch merged runs from it — so executor loss
	// no longer forgets map outputs or resubmits completed map stages.
	ExternalShuffleService bool
	// EventLogPath, when non-empty, records every lifecycle event the
	// driver's listener bus emits (job/stage/task lifecycle with per-task
	// shuffle metrics, executor loss/replacement, collective ops, fetch
	// failures) as JSONL at this path, replayable with obs.ReadLog or
	// cmd/eventlog — the Spark event-log/History Server model.
	EventLogPath string
	// AdaptiveExecution enables skew-aware reduce planning (the
	// spark.sql.adaptive model applied to the RDD scheduler): at result-
	// stage submit time the scheduler consults the map-output tracker's
	// per-reducer byte sizes, splits oversized partitions into map-range
	// sub-tasks merged after the fact, and coalesces runt partitions into
	// shared tasks.
	AdaptiveExecution bool
	// AdaptiveTargetBytes is the per-task byte target adaptive planning
	// aims for: split sub-tasks are cut to roughly this size, and
	// consecutive partitions below it are coalesced into one task until
	// their sum would pass it. DefaultConfig sets
	// DefaultAdaptiveTargetBytes; adaptive execution needs it positive.
	AdaptiveTargetBytes int64
}

// Scheduler constants no caller varies.
const (
	// taskClosureBytes models the serialized task shipped in every
	// LaunchTask message (task binary + closure).
	taskClosureBytes = 1024
	// maxTaskAttempts bounds per-task retries (spark.task.maxFailures). A
	// failing task is retried on a different executor when possible.
	maxTaskAttempts = 3
	// DefaultAdaptiveSkewThreshold is the skew trigger: a reduce partition
	// is split when its bytes exceed this multiple of the stage's median
	// partition size (and exceed 2*AdaptiveTargetBytes, so each sub-task
	// still gets at least a target's worth).
	DefaultAdaptiveSkewThreshold = 2.0
	// DefaultAdaptiveTargetBytes is DefaultConfig's AdaptiveTargetBytes.
	DefaultAdaptiveTargetBytes = 256 << 10
)

// DefaultConfig returns a reasonable configuration.
func DefaultConfig() Config {
	return Config{
		Name:                "app",
		CPU:                 DefaultCPUModel(),
		DefaultParallelism:  4,
		MaxStageAttempts:    4,
		AdaptiveTargetBytes: DefaultAdaptiveTargetBytes,
	}
}

// taskMetrics aggregates a task's counters.
type taskMetrics struct {
	Records       int64
	ShuffleBytes  int64
	BytesLocal    int64 // shuffle bytes read from the local block manager
	BytesRemote   int64 // shuffle bytes fetched over the network
	ShuffleWaitVT vtime.Stamp
}

// completion is a finished attempt's in-process result record.
type completion struct {
	attempt   *attempt
	part      int
	execID    string
	result    any
	mapStatus *shuffle.MapStatus
	cached    []cacheKey
	err       error
	driverVT  vtime.Stamp
	metrics   taskMetrics
}

// taskDescriptor is one schedulable task.
type taskDescriptor struct {
	stage      *stageInfo
	part       int
	run        func(tc *TaskContext) (any, *shuffle.MapStatus, error)
	resultSize func(any) int
	preferred  string // preferred executor id ("" = any)
	// share is the task's part of an adapted result stage (zero when the
	// stage runs one task per partition).
	share physTask
}

// attempt is one launch of a task (its first try or a retry) under an id of
// its own, Spark's task id. It sits in the driver's attempt table from its
// launch until its completion is handed to its stage's done mailbox, by the
// scheduler endpoint on its StatusUpdate or by the loss funnel when its
// executor is lost, or until a failed launch gives it up. A StatusUpdate
// that finds no record is a superseded attempt's and is dropped.
type attempt struct {
	id     int64
	task   *taskDescriptor
	index  int         // the task's index in its stage
	number int         // 0 for the first try, one more than the attempt it follows
	execID string      // the executor it was sent to, under Context.mu
	comp   *completion // stored by the executor before its StatusUpdate, under Context.mu
}

// stageInfo describes a stage for scheduling and metrics.
type stageInfo struct {
	id    int
	jobID int
	name  string
	kind  string
	// done receives the completion of every attempt of the stage's tasks.
	done vtime.Mailbox[*completion]
}

// StageTiming is the per-stage record behind the paper's breakdown plots.
type StageTiming struct {
	JobID int
	// Name follows the paper's labels, e.g. "Job1-ShuffleMapStage".
	Name string
	// Kind is "ShuffleMapStage" or "ResultStage".
	Kind  string
	Start vtime.Stamp
	End   vtime.Stamp
	Tasks int
	// Records processed and shuffle bytes fetched, summed over tasks.
	Records      int64
	ShuffleBytes int64
	// ShuffleWaitMax is the largest per-task shuffle wait.
	ShuffleWaitMax vtime.Stamp
}

// Duration returns the stage's virtual wall time.
func (s StageTiming) Duration() vtime.Stamp { return s.End - s.Start }

// Context is the SparkContext: the driver-side entry point that owns the
// lineage counters, the DAG scheduler, the map-output tracker, and the
// stage metrics.
type Context struct {
	cfg       Config
	driver    *rpc.Env
	executors []*Executor
	tracker   *shuffle.MapOutputTracker

	jobMu sync.Mutex // one job at a time

	mu           sync.Mutex
	rddSeq       int
	shuffleSeq   int
	stageSeq     int
	jobSeq       int
	taskSeq      int64
	attempts     map[int64]*attempt // attempts in flight, by id
	clock        vtime.Stamp
	stages       []StageTiming
	cacheLocs    map[cacheKey]string
	checkpoints  []localCheckpoint // local checkpoints awaiting their lineage cut
	doneShuffles map[int]bool
	rrNext       int
	bcast        *broadcastState
	collDriver   *collective.Station
	lostExecs    map[string]bool  // executors declared lost, excluded from placement
	replacer     ExecutorReplacer // deployment hook forking replacements

	// bus carries lifecycle events (see internal/obs); eventLog is the
	// JSONL writer subscribed when Config.EventLogPath is set.
	bus      *obs.Bus
	eventLog *obs.LogWriter

	// lossReports runs the loss reports of killed executors (reportSilent);
	// closed, under mu, stops new ones once Close has begun joining it.
	lossReports vtime.Group
	closed      bool
	closeOnce   sync.Once
}

// NewContext creates a SparkContext over a driver environment and a set of
// executors, registering the driver's endpoints and attaching every
// executor, which registers with the driver at virtual time at (when the
// deployment launched it). The context's clock starts at the last
// registration reply: jobs begin once every executor has registered.
func NewContext(cfg Config, driver *rpc.Env, executors []*Executor, at vtime.Stamp) (*Context, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DefaultParallelism < 1 {
		cfg.DefaultParallelism = 1
	}
	if cfg.MaxStageAttempts < 1 {
		cfg.MaxStageAttempts = 4
	}
	if cfg.ShuffleChunkBytes <= 0 {
		cfg.ShuffleChunkBytes = shuffle.DefaultChunkBytes
	}
	if len(executors) == 0 {
		return nil, fmt.Errorf("spark: context needs at least one executor")
	}
	c := &Context{
		cfg:          cfg,
		driver:       driver,
		executors:    executors,
		tracker:      shuffle.NewMapOutputTracker(),
		attempts:     make(map[int64]*attempt),
		cacheLocs:    make(map[cacheKey]string),
		doneShuffles: make(map[int]bool),
		lostExecs:    make(map[string]bool),
		bus:          obs.NewBus(),
	}
	if cfg.EventLogPath != "" {
		lw, err := obs.NewLogWriter(cfg.EventLogPath)
		if err != nil {
			return nil, err
		}
		c.eventLog = lw
		c.bus.Subscribe(lw)
	}
	if err := shuffle.ServeTracker(driver, c.tracker); err != nil {
		return nil, err
	}
	err := driver.RegisterEndpoint(SchedulerEndpoint, func(call *rpc.Call) {
		if len(call.Payload) < 8 {
			return
		}
		id := int64(binary.BigEndian.Uint64(call.Payload[:8]))
		c.mu.Lock()
		a := c.attempts[id]
		delete(c.attempts, id)
		c.mu.Unlock()
		if a == nil || a.comp == nil {
			return
		}
		a.comp.driverVT = call.VT
		a.task.stage.done.Push(a.comp)
	})
	if err != nil {
		return nil, err
	}
	// RegisterExecutor: the connection the ask arrived on becomes the
	// driver's route to the executor's address.
	err = driver.RegisterEndpoint(RegistrationEndpoint, func(call *rpc.Call) {
		addr, err := decodeRegistration(call.Payload)
		if err == nil {
			err = driver.BindRoute(call, addr)
		}
		if err != nil {
			call.Fail(err.Error(), call.VT)
			return
		}
		call.Reply(nil, call.VT)
	})
	if err != nil {
		return nil, err
	}
	c.collDriver = collective.NewStation(driver)
	c.clock = at
	for _, e := range executors {
		vt, err := e.Attach(c, at)
		if err != nil {
			return nil, err
		}
		c.clock = vtime.Max(c.clock, vt)
	}
	return c, nil
}

// Close joins the loss reports of killed executors (a Kill after Close
// reports nothing) and flushes the event log if one was configured. The
// deploy layers call it from their cluster Close; it does not shut the
// executors or RPC environments down.
func (c *Context) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.lossReports.Wait()
		if c.eventLog != nil {
			c.eventLog.Close()
		}
	})
}

// Bus returns the driver's lifecycle event bus. Subscribe a listener to
// observe job/stage/task events in process; set Config.EventLogPath to
// record them to disk instead.
func (c *Context) Bus() *obs.Bus { return c.bus }

// Driver returns the driver's RPC environment.
func (c *Context) Driver() *rpc.Env { return c.driver }

// Executors returns a snapshot of the context's executors. Replacement
// swaps a respawned executor into the lost one's position, so the slice
// contents can change across calls (its length never shrinks).
func (c *Context) Executors() []*Executor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Executor(nil), c.executors...)
}

// uncache forgets where an RDD's partitions are cached and drops them from
// every executor's cache (RDD.Unpersist).
func (c *Context) uncache(rddID, parts int) {
	c.mu.Lock()
	for p := 0; p < parts; p++ {
		delete(c.cacheLocs, cacheKey{rddID: rddID, part: p})
	}
	c.mu.Unlock()
	for _, e := range c.Executors() {
		e.cacheMu.Lock()
		for p := 0; p < parts; p++ {
			delete(e.cached, cacheKey{rddID: rddID, part: p})
		}
		e.cacheMu.Unlock()
	}
}

// CachedPartitions returns how many RDD partitions the executors hold in
// their caches, summed over the cluster (the numCachedPartitions of Spark's
// storage info).
func (c *Context) CachedPartitions() int {
	n := 0
	for _, e := range c.Executors() {
		e.cacheMu.RLock()
		n += len(e.cached)
		e.cacheMu.RUnlock()
	}
	return n
}

// executorCount returns the current cluster width.
func (c *Context) executorCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.executors)
}

// Clock returns the driver's job clock: the virtual time at which the last
// action completed.
func (c *Context) Clock() vtime.Stamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// AdvanceClock moves the job clock forward to at least vt. Work the driver
// does outside a stage's tasks (merging a split partition's results, a
// broadcast, a tree aggregate's merge, a streaming batch's submission, an
// OHB collective) calls it with the time that work ended, so what the
// driver does next does not start before it.
func (c *Context) AdvanceClock(vt vtime.Stamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = vtime.Max(c.clock, vt)
}

// Stages returns the recorded stage timings, oldest first.
func (c *Context) Stages() []StageTiming {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StageTiming(nil), c.stages...)
}

// ResetStages clears the recorded stage timings (between benchmark
// phases); the virtual clock keeps running.
func (c *Context) ResetStages() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stages = nil
}

// CPU returns the context's compute-cost model. Layers that model work
// outside tasks (streaming receivers charging ingest cost, say) use it so
// their virtual-time costs stay consistent with task compute.
func (c *Context) CPU() CPUModel { return c.cfg.CPU }

// TotalSlots returns the cluster's total task slot count.
func (c *Context) TotalSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.executors {
		n += e.nSlots
	}
	return n
}

func (c *Context) nextRDDID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rddSeq++
	return c.rddSeq
}

func (c *Context) nextShuffleID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shuffleSeq++
	return c.shuffleSeq
}
