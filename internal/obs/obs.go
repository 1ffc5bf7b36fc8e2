// Package obs is the driver-side observability layer: a listener bus
// carrying structured lifecycle events (the Spark ListenerBus model) plus
// a JSONL event-log writer and a replay/analysis API (the History Server
// model).
//
// Every event carries both a virtual-time stamp — the simulation's
// deterministic clock, comparable across transports — and a wall-clock
// stamp for correlating with logs from outside the simulation. Emission
// is wired into the scheduler (job/stage lifecycle), the executors
// (per-task metrics: records, shuffle bytes split by locality, fetch-wait
// virtual time, retry count), the driver's executor-loss funnel, and the
// collective layer, so a recorded run can be decomposed into per-stage
// shuffle-wait vs. compute after the fact instead of reporting only an
// end-to-end job time.
package obs

import (
	"sync"
	"time"

	"mpi4spark/internal/vtime"
)

// Event types. One flat Event struct covers all of them; fields that do
// not apply to a given type are zero.
const (
	EvJobStart         = "JobStart"
	EvJobEnd           = "JobEnd"
	EvStageSubmitted   = "StageSubmitted"
	EvStageCompleted   = "StageCompleted"
	EvTaskStart        = "TaskStart"
	EvTaskEnd          = "TaskEnd"
	EvExecutorLost     = "ExecutorLost"
	EvExecutorReplaced = "ExecutorReplaced"
	EvCollectiveOp     = "CollectiveOp"
	EvFetchFailed      = "FetchFailed"
	EvShufflePush      = "ShufflePush"
	EvShuffleMerge     = "ShuffleMerge"
	EvShuffleServe     = "ShuffleServe"
	EvStageAdapted     = "StageAdapted"
	EvBlockCorrupt     = "BlockCorrupt"
	EvBatchSubmitted   = "BatchSubmitted"
	EvBatchCompleted   = "BatchCompleted"
)

// Event is one structured lifecycle record. The zero values of the ID
// fields are meaningful (job 0, stage 0, partition 0), so only fields
// whose zero value genuinely means "absent" carry omitempty.
type Event struct {
	Type string      `json:"type"`
	VT   vtime.Stamp `json:"vt"`   // virtual-time stamp (ns)
	Wall time.Time   `json:"wall"` // wall-clock stamp

	// Job / stage identity.
	Job       int    `json:"job"`
	Stage     int    `json:"stage,omitempty"`
	StageName string `json:"stageName,omitempty"`
	StageKind string `json:"stageKind,omitempty"` // "ShuffleMapStage" | "ResultStage"
	Tasks     int    `json:"tasks,omitempty"`     // stage width (StageSubmitted)

	// Task identity and per-task metrics (TaskStart/TaskEnd).
	Partition   int         `json:"partition,omitempty"`
	Attempt     int         `json:"attempt,omitempty"` // retry count, 0 = first
	Executor    string      `json:"executor,omitempty"`
	Start       vtime.Stamp `json:"start,omitempty"`       // task launch VT (TaskEnd)
	Records     int64       `json:"records,omitempty"`     // records read
	BytesLocal  int64       `json:"bytesLocal,omitempty"`  // shuffle bytes read locally
	BytesRemote int64       `json:"bytesRemote,omitempty"` // shuffle bytes fetched remotely
	// FetchWait is the VT the task clock stalled on shuffle fetches past
	// their tracker replies (TaskEnd). Reads in flight together stall it
	// once, so it never exceeds VT - Start and the stage breakdown's
	// Compute column (duration minus FetchWait) stays non-negative.
	FetchWait vtime.Stamp `json:"fetchWait,omitempty"`

	// Shuffle fetch failure (FetchFailed) and external shuffle service
	// traffic (ShufflePush/ShuffleMerge/ShuffleServe, which also set
	// Executor to the service ID and Bytes to the payload size).
	ShuffleID int `json:"shuffleId,omitempty"`
	MapID     int `json:"mapId,omitempty"`
	ReduceID  int `json:"reduceId,omitempty"`

	// Collective op (CollectiveOp).
	Op    int64  `json:"op,omitempty"`    // collective op ID
	Kind  string `json:"kind,omitempty"`  // bcast | reduce | allreduce
	Bytes int    `json:"bytes,omitempty"` // payload bytes per rank
	Ranks int    `json:"ranks,omitempty"`

	// Failure context (JobEnd, TaskEnd, ExecutorLost, FetchFailed).
	Err   string `json:"err,omitempty"`
	Cause string `json:"cause,omitempty"` // ExecutorLost reason

	// Replacement executor ID (ExecutorReplaced).
	Replacement string `json:"replacement,omitempty"`

	// Adaptive execution. StageAdapted (Splits/Coalesces summarize the
	// plan rewrite; Tasks carries the physical width) and ranged sub-task
	// identity on TaskStart/TaskEnd/ShuffleServe: a split sub-task reads
	// map ids [MapLo, MapHi) of its partition. Coalesced marks a task
	// covering that many original partitions.
	Splits    int `json:"splits,omitempty"`
	Coalesces int `json:"coalesces,omitempty"`
	MapLo     int `json:"mapLo,omitempty"`
	MapHi     int `json:"mapHi,omitempty"`
	Coalesced int `json:"coalesced,omitempty"`

	// Speculative is always false: the scheduler launches no speculative
	// attempts. The field exists for bench/, which keys task spans by it; a
	// later benchmark PR may drop it.
	Speculative bool `json:"speculative,omitempty"`

	// Streaming micro-batches. Batch numbers are 1-based so omitempty
	// keeps non-streaming events clean. BatchSubmitted stamps VT with the
	// batch's data-ready time (all receiver blocks registered) and carries
	// the interval's ingest as Records/Blocks plus the rate limit in
	// force; BatchCompleted stamps VT with job completion, Start with the
	// submit time, and SchedDelay with how long past the interval boundary
	// the batch waited to start.
	Batch      int         `json:"batch,omitempty"`
	Blocks     int         `json:"blocks,omitempty"`
	RateLimit  float64     `json:"rateLimit,omitempty"` // events/sec; 0 = unlimited
	SchedDelay vtime.Stamp `json:"schedDelay,omitempty"`
}

// Listener receives every event posted to a Bus. Listeners are invoked
// synchronously on the emitting goroutine (executor task goroutines,
// the scheduler, a killed executor's loss report) and must be internally
// synchronized and fast.
type Listener interface {
	OnEvent(Event)
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(Event)

// OnEvent implements Listener.
func (f ListenerFunc) OnEvent(e Event) { f(e) }

// Bus fans events out to registered listeners. A nil *Bus is valid and
// drops everything, so call sites never need a nil check. Emission from
// many goroutines at once is safe.
type Bus struct {
	mu        sync.RWMutex
	listeners []Listener
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a listener for all subsequent events.
func (b *Bus) Subscribe(l Listener) {
	if b == nil || l == nil {
		return
	}
	b.mu.Lock()
	b.listeners = append(b.listeners, l)
	b.mu.Unlock()
}

// Emit posts an event to every listener, stamping the wall clock if the
// caller left it zero. Nil-safe.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	if e.Wall.IsZero() {
		e.Wall = time.Now()
	}
	b.mu.RLock()
	ls := b.listeners
	b.mu.RUnlock()
	for _, l := range ls {
		l.OnEvent(e)
	}
}

// Collector is a Listener that buffers every event in memory, for tests
// and in-process analysis without a log file.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// OnEvent implements Listener.
func (c *Collector) OnEvent(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}
