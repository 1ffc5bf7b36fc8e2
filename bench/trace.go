package main

import (
	"encoding/json"
	"os"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/faults"
	"mpi4spark/internal/harness"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
)

// span is one timed interval of the traced pass. Driver spans are recorded
// by the benchmark around the calls it makes; stage, task and batch spans
// are rebuilt from the program's bus events, which carry both clocks.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent (an op)
	Op     int    `json:"op"`     // spans of one op share its number
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host time since the trace began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus what child spans cover
	// Modelled start and end, for spans rebuilt from events.
	VTStart int64 `json:"vt_start_ns,omitempty"`
	VTEnd   int64 `json:"vt_end_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is used from the
// driver goroutine only. A nil tracer records nothing, so the timed pass
// shares the traced pass's code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: t.since(time.Now()),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = t.since(time.Now())
}

// add records a finished span rebuilt from events and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// finish fills in every span's self time.
func (t *tracer) finish() {
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = selfTime(interval{s.Start, s.End}, children[s.ID])
	}
}

// traceFile is the schema of bench/out/trace-<workload>.json.
type traceFile struct {
	Host     hostFacts `json:"host"`
	Workload string    `json:"workload"`
	Spans    []span    `json:"spans"`
}

func (t *tracer) write(path, workload string, host hostFacts) error {
	t.finish()
	data, err := json.Marshal(traceFile{Host: host, Workload: workload, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// legTrace is what the traced pass collects around one leg from outside
// the program: the bus events, the moved counters, the buffer pool's
// statistics and what the fault plane injected. A nil legTrace (the timed
// pass) attaches nothing.
type legTrace struct {
	collector          *obs.Collector
	snap               metrics.CounterSnapshot
	gets0, hits0       int64
	events             []obs.Event
	counters           map[string]int64
	poolGets, poolHits int64
	faults             faults.Counters
}

// attach starts collecting; cl is nil for pingpong, which has no bus.
func (lt *legTrace) attach(cl *harness.Cluster) {
	if lt == nil {
		return
	}
	if cl != nil {
		lt.collector = &obs.Collector{}
		cl.Ctx.Bus().Subscribe(lt.collector)
	}
	lt.snap = metrics.Snapshot()
	lt.gets0, lt.hits0 = bytebuf.Default.Stats()
}

// detach stops collecting and turns the events into child spans of the
// job span.
func (lt *legTrace) detach(cl *harness.Cluster, tr *tracer, jobSpan, op int) {
	if lt == nil {
		return
	}
	gets, hits := bytebuf.Default.Stats()
	lt.poolGets, lt.poolHits = gets-lt.gets0, hits-lt.hits0
	lt.counters = lt.snap.Delta()
	if cl == nil {
		return
	}
	lt.events = lt.collector.Events()
	if plane, ok := cl.Fabric.FaultPlane().(*faults.Plane); ok {
		lt.faults = plane.Counters()
	}
	eventSpans(tr, jobSpan, op, lt.events)
}

type stageKey struct{ job, stage int }

type taskKey struct {
	job, stage, part, attempt, mapLo int
	speculative                      bool
}

// eventSpans rebuilds batch, stage and task spans from paired bus events:
// batches and stages hang off the job span (a stage off the batch running
// when it was submitted, if any), tasks off their stage. A span is opened
// by its first event and closed by its second.
func eventSpans(tr *tracer, jobSpan, op int, events []obs.Event) {
	open := func(parent int, layer, name string, e obs.Event) int {
		return tr.add(span{Parent: parent, Op: op, Layer: layer, Name: name,
			Start: tr.since(e.Wall), End: tr.since(e.Wall), VTStart: int64(e.VT)})
	}
	closeAt := func(id int, e obs.Event) {
		s := &tr.spans[id-1]
		s.End, s.VTEnd = tr.since(e.Wall), int64(e.VT)
	}
	batch := 0 // span of the micro-batch in progress
	stages := map[stageKey]int{}
	tasks := map[taskKey]int{}
	for _, e := range events {
		switch e.Type {
		case obs.EvBatchSubmitted:
			batch = open(jobSpan, "streaming", "batch", e)
		case obs.EvBatchCompleted:
			if batch != 0 {
				closeAt(batch, e)
				batch = 0
			}
		case obs.EvStageSubmitted:
			parent := jobSpan
			if batch != 0 {
				parent = batch
			}
			stages[stageKey{e.Job, e.Stage}] = open(parent, "spark", e.StageName, e)
		case obs.EvStageCompleted:
			if id, ok := stages[stageKey{e.Job, e.Stage}]; ok {
				closeAt(id, e)
			}
		case obs.EvTaskStart:
			parent, ok := stages[stageKey{e.Job, e.Stage}]
			if !ok {
				parent = jobSpan
			}
			tasks[taskKey{e.Job, e.Stage, e.Partition, e.Attempt, e.MapLo, e.Speculative}] = open(parent, "spark", "task", e)
		case obs.EvTaskEnd:
			k := taskKey{e.Job, e.Stage, e.Partition, e.Attempt, e.MapLo, e.Speculative}
			if id, ok := tasks[k]; ok {
				closeAt(id, e)
				delete(tasks, k)
			}
		}
	}
}
