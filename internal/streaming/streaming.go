// Package streaming is a DStream-style micro-batch engine over
// internal/spark, the Spark Streaming model in deterministic virtual time:
// receivers ingest generated event streams into blocks cut on a block
// interval and registered with the driver as RDD partitions pinned to the
// receiving executor; a job generator turns each batch interval into one
// spark job over those blocks; the windowed operator, reduce-by-key-and-
// window (incremental when given an inverse), carries state across batches
// in cached partitions that one narrow merge per slide folds, with no
// shuffle of its own; and a PID rate estimator (Spark's
// `pid` RateEstimator) bounds receiver ingest when processing time
// exceeds the batch interval.
//
// Everything driver-side runs on the single goroutine that calls Run, and
// every cost — receiver CPU, block registration RPCs, the jobs themselves
// — advances virtual time through the same fabric and resource models as
// batch jobs. Event data is a pure function of (receiver, sequence
// number), so a replayed run ingests the identical events on the
// identical batch schedule and produces bit-identical results on every
// transport; processing stamps, as everywhere in the engine, can wobble
// by microseconds with task-goroutine interleaving.
package streaming

import (
	"fmt"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

// Counter names for the streaming plane. Reconciliation invariants:
// ingested <= offered always; ingested == offered when backpressure never
// activates; and the ingested counter equals the events carried by the
// BatchSubmitted events of the run.
const (
	CounterEventsOffered      = "streaming.events.offered"
	CounterEventsIngested     = "streaming.events.ingested"
	CounterEventsDeferred     = "streaming.events.deferred"
	CounterBlocksGenerated    = "streaming.blocks.generated"
	CounterBatchesSubmitted   = "streaming.batches.submitted"
	CounterBatchesCompleted   = "streaming.batches.completed"
	CounterBackpressureLimits = "streaming.backpressure.limited"
)

// Defaults for Config's zero values.
const (
	DefaultBatchInterval = 2 * time.Millisecond
	DefaultMinRate       = 1000 // events/sec
)

// blocksPerBatch is how many blocks a receiver cuts each batch interval
// into, one per equal sub-interval (Spark's block interval is a quarter of
// the default batch interval); each block becomes one pinned RDD partition.
const blocksPerBatch = 4

// Config configures a StreamingContext. Durations are virtual time.
type Config struct {
	// BatchInterval is the micro-batch period: batch b covers virtual
	// time [b*I, (b+1)*I) from stream start. It must be a multiple of
	// blocksPerBatch nanoseconds. Default 2ms.
	BatchInterval time.Duration
	// Backpressure enables the PID rate controller: when a batch's
	// processing time exceeds the interval, the next intervals' receiver
	// ingest is capped at the estimated sustainable rate. Events beyond
	// the cap stay queued at the source (a receiver backlog), never
	// dropped.
	Backpressure bool
	// MinRate floors the controller's estimate (events/sec, summed over
	// receivers). Default 1000.
	MinRate float64
}

func (c *Config) validate() error {
	bad := func(field, reason string) error {
		return &spark.ConfigError{Field: "streaming." + field, Reason: reason}
	}
	if c.BatchInterval < 0 {
		return bad("BatchInterval", "negative batch interval")
	}
	if c.BatchInterval%blocksPerBatch != 0 {
		return bad("BatchInterval", fmt.Sprintf("%d blocks per batch cannot tile %v", blocksPerBatch, c.BatchInterval))
	}
	if c.MinRate < 0 {
		return bad("MinRate", "negative rate floor")
	}
	if c.BatchInterval == 0 {
		c.BatchInterval = DefaultBatchInterval
	}
	if c.MinRate == 0 {
		c.MinRate = DefaultMinRate
	}
	return nil
}

// BatchStat is one completed batch's record, the in-process mirror of the
// BatchSubmitted/BatchCompleted event pair.
type BatchStat struct {
	Batch      int         // 1-based
	Ready      vtime.Stamp // all receiver blocks registered
	Start      vtime.Stamp // job submit time
	End        vtime.Stamp // last output job completed
	SchedDelay vtime.Stamp // interval boundary -> start
	Events     int64       // events admitted for the interval
	Blocks     int         // blocks backing the batch
	RateLimit  float64     // limit in force while ingesting (0 = unlimited)
}

// Proc is the batch's processing time.
func (b BatchStat) Proc() vtime.Stamp { return b.End - b.Start }

// forgettable is the type-erased DStream view the context drives.
type forgettable interface {
	forget(olderThan int)
	rememberDepth() int
}

// StreamingContext owns a stream's receivers, its DStream graph, and the
// job generator. One StreamingContext per spark.Context (it registers the
// block-registration endpoint on the driver). Not safe for concurrent use:
// build the graph, then call Run from one goroutine.
type StreamingContext struct {
	ctx   *spark.Context
	cfg   Config
	epoch vtime.Stamp // stream start (virtual)

	receivers []*receiverCore
	streams   []forgettable
	outputs   []func(batch int) error

	// gen serializes batch submission: the job generator is a recurring
	// virtual-time timer, and back-to-back intervals must occupy it in
	// order so no two batches ever submit at the identical stamp.
	gen *vtime.Resource

	est       *pidEstimator
	rateLimit float64 // events/sec over all receivers; 0 = unlimited

	batches int // batches run so far
	stats   []BatchStat
}

// submitCost is the modeled driver CPU cost of generating one batch's
// jobs (the JobGenerator tick).
const submitCost = 2 * time.Microsecond

// NewContext wraps a spark.Context in a streaming context. The stream's
// epoch is the context's current virtual clock, so batch b covers
// [epoch+b*I, epoch+(b+1)*I).
func NewContext(ctx *spark.Context, cfg Config) (*StreamingContext, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc := &StreamingContext{
		ctx:   ctx,
		cfg:   cfg,
		epoch: ctx.Clock(),
		gen:   vtime.NewResource(),
		est:   newPIDEstimator(cfg.BatchInterval, cfg.MinRate),
	}
	if err := sc.serveBlockRegistry(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Stats returns the per-batch records of every batch run so far.
func (sc *StreamingContext) Stats() []BatchStat {
	return append([]BatchStat(nil), sc.stats...)
}

// RateLimit returns the backpressure controller's current events/sec
// limit (0 = unlimited / controller warming up).
func (sc *StreamingContext) RateLimit() float64 { return sc.rateLimit }

func (sc *StreamingContext) register(s forgettable) { sc.streams = append(sc.streams, s) }

// Run generates and executes n micro-batches.
func (sc *StreamingContext) Run(n int) error {
	if len(sc.outputs) == 0 {
		return fmt.Errorf("streaming: no output operations registered (use Foreach)")
	}
	for i := 0; i < n; i++ {
		if err := sc.runBatch(); err != nil {
			return err
		}
	}
	return nil
}

// runBatch is one job-generator tick: ingest the interval on every
// receiver, submit the batch's output jobs, feed the rate estimator, and
// forget history no window can reach anymore.
func (sc *StreamingContext) runBatch() error {
	b := sc.batches
	batchNs := vtime.Duration(sc.cfg.BatchInterval)
	dataReady := sc.epoch + vtime.Stamp(b+1)*batchNs

	// Per-receiver admission cap for this interval, from the controller's
	// events/sec estimate split evenly across receivers. -1 = unlimited.
	limit := int64(-1)
	limitInForce := 0.0
	if sc.cfg.Backpressure && sc.rateLimit > 0 && len(sc.receivers) > 0 {
		perRecv := sc.rateLimit / float64(len(sc.receivers))
		limit = int64(perRecv * sc.cfg.BatchInterval.Seconds())
		limitInForce = sc.rateLimit
	}

	ready := dataReady
	var events int64
	blocks := 0
	for _, r := range sc.receivers {
		bs, err := r.ingest(b, limit)
		if err != nil {
			return fmt.Errorf("streaming: receiver %s batch %d: %w", r.name, b+1, err)
		}
		if bs.ready > ready {
			ready = bs.ready
		}
		events += bs.events
		blocks += bs.blocks
	}

	// The generator timer fires at the data-ready stamp; occupying the
	// resource serializes consecutive ticks so two back-to-back intervals
	// can never submit at an identical stamp.
	_, submitVT := sc.gen.Occupy(ready, submitCost)
	sc.ctx.AdvanceClock(submitVT)
	metrics.GetCounter(CounterBatchesSubmitted).Inc()
	sc.ctx.Bus().Emit(obs.Event{
		Type: obs.EvBatchSubmitted, VT: ready, Batch: b + 1,
		Records: events, Blocks: blocks, RateLimit: limitInForce,
	})

	start := sc.ctx.Clock() // >= submitVT and >= previous batch's end
	for _, out := range sc.outputs {
		if err := out(b); err != nil {
			return fmt.Errorf("streaming: batch %d: %w", b+1, err)
		}
	}
	end := sc.ctx.Clock()
	schedDelay := start - dataReady

	metrics.GetCounter(CounterBatchesCompleted).Inc()
	sc.ctx.Bus().Emit(obs.Event{
		Type: obs.EvBatchCompleted, VT: end, Batch: b + 1,
		Start: start, SchedDelay: schedDelay, Records: events, Blocks: blocks,
		RateLimit: limitInForce,
	})
	sc.stats = append(sc.stats, BatchStat{
		Batch: b + 1, Ready: ready, Start: start, End: end,
		SchedDelay: schedDelay, Events: events, Blocks: blocks,
		RateLimit: limitInForce,
	})

	if sc.cfg.Backpressure {
		if rate, ok := sc.est.update(end, events, end-start, schedDelay); ok {
			sc.rateLimit = rate
		}
	}

	// Forget batches no dependent can reference anymore.
	sc.batches++
	keep := 1
	for _, s := range sc.streams {
		if d := s.rememberDepth(); d > keep {
			keep = d
		}
	}
	for _, s := range sc.streams {
		s.forget(b - keep)
	}
	for _, r := range sc.receivers {
		r.release(b - keep)
	}
	return nil
}
