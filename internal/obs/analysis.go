package obs

import (
	"fmt"
	"sort"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/vtime"
)

// TaskSummary is one task attempt reconstructed from a TaskEnd event.
type TaskSummary struct {
	Partition   int
	Attempt     int
	Executor    string
	Start       vtime.Stamp
	End         vtime.Stamp
	FetchWait   vtime.Stamp
	Records     int64
	BytesLocal  int64
	BytesRemote int64
	Err         string

	// Adaptive execution: a split sub-task reads only map outputs
	// [MapLo, MapHi) of its partition; Coalesced > 0 marks a task running
	// that many runt partitions; Speculative marks a straggler re-launch.
	MapLo       int
	MapHi       int
	Coalesced   int
	Speculative bool
}

// Duration is the task's virtual running time.
func (t TaskSummary) Duration() vtime.Stamp { return t.End - t.Start }

// Ranged reports whether the attempt is a map-range sub-task of a split
// reduce partition.
func (t TaskSummary) Ranged() bool { return t.MapHi > t.MapLo }

// Label renders the attempt for timeline and critical-path displays:
// "p3.0", with the map range for split sub-tasks ("p0.0[4,8)"), "+N" for
// a task covering N coalesced partitions, and a "spec" suffix for
// speculative attempts.
func (t TaskSummary) Label() string {
	l := fmt.Sprintf("p%d.%d", t.Partition, t.Attempt)
	if t.Ranged() {
		l += fmt.Sprintf("[%d,%d)", t.MapLo, t.MapHi)
	}
	if t.Coalesced > 1 {
		l += fmt.Sprintf("+%d", t.Coalesced-1)
	}
	if t.Speculative {
		l += " spec"
	}
	return l
}

// StageSummary aggregates one stage's lifecycle and its tasks.
type StageSummary struct {
	Job       int
	Stage     int
	Name      string
	Kind      string
	Submitted vtime.Stamp
	Completed vtime.Stamp
	Width     int // declared task count at submission
	Tasks     []TaskSummary

	// Aggregates over successful task attempts.
	TaskTime    vtime.Stamp // sum of task durations
	FetchWait   vtime.Stamp // sum of fetch-wait time
	Records     int64
	BytesLocal  int64
	BytesRemote int64
	Retries     int // task attempts beyond the first

	// Adaptive execution (from the stage's StageAdapted event).
	Splits    int // reduce partitions split into map-range sub-tasks
	Coalesces int // groups of runt partitions merged into one task
	// Speculation (from TaskSpeculated events).
	Speculated int // speculative attempts launched
	SpecWon    int // speculative attempts that beat the original
}

// Duration is the stage's virtual wall time, submission to completion.
func (s *StageSummary) Duration() vtime.Stamp { return s.Completed - s.Submitted }

// SlowestTask returns the successful task gating stage completion, or a
// zero summary if the stage recorded no successful tasks.
func (s *StageSummary) SlowestTask() TaskSummary {
	var slowest TaskSummary
	for _, t := range s.Tasks {
		if t.Err == "" && t.Duration() > slowest.Duration() {
			slowest = t
		}
	}
	return slowest
}

// TaskTimes returns the p50 and max duration over successful attempts and
// their ratio (max/p50) — the per-stage skew figure the adaptive planner
// targets. A stage with no successful tasks reports zeros.
func (s *StageSummary) TaskTimes() (p50, max vtime.Stamp, skew float64) {
	var durs []vtime.Stamp
	for _, t := range s.Tasks {
		if t.Err == "" {
			durs = append(durs, t.Duration())
		}
	}
	if len(durs) == 0 {
		return 0, 0, 0
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	p50 = durs[len(durs)/2]
	max = durs[len(durs)-1]
	if p50 > 0 {
		skew = float64(max) / float64(p50)
	}
	return p50, max, skew
}

// BatchSummary is one streaming micro-batch reconstructed from its
// BatchSubmitted/BatchCompleted event pair.
type BatchSummary struct {
	Batch      int         // 1-based batch number
	Ready      vtime.Stamp // data-ready time (all receiver blocks registered)
	Start      vtime.Stamp // job submit time
	End        vtime.Stamp // job completion time
	SchedDelay vtime.Stamp // ready boundary → start
	Events     int64       // events ingested for the interval
	Blocks     int         // receiver blocks backing the batch
	RateLimit  float64     // backpressure limit in force (events/sec, 0 = unlimited)
	Err        string
}

// Proc is the batch's processing time — the figure backpressure holds at
// or under the batch interval.
func (b BatchSummary) Proc() vtime.Stamp { return b.End - b.Start }

// JobSummary aggregates one job and its stages in submission order.
type JobSummary struct {
	Job    int
	Start  vtime.Stamp
	End    vtime.Stamp
	Err    string
	Stages []*StageSummary
}

// Duration is the job's virtual wall time.
func (j *JobSummary) Duration() vtime.Stamp { return j.End - j.Start }

// Report is the analysis of one replayed event log.
type Report struct {
	Jobs    []*JobSummary
	Batches []*BatchSummary // streaming micro-batches, in batch order
	Events  []Event         // the raw log, in emission order

	Lost       int // ExecutorLost events
	Replaced   int // ExecutorReplaced events
	FetchFails int // FetchFailed events
	Collective int // CollectiveOp events

	// Adaptive execution and speculation. The split/coalesce totals must
	// match the scheduler.adaptive.{splits,coalesces} counter deltas, the
	// speculation totals the scheduler.speculation.{launched,won,lost}
	// deltas, for the run.
	AdaptedStages int // StageAdapted events
	Splits        int // partitions split, summed over StageAdapted
	Coalesces     int // coalesce groups, summed over StageAdapted
	Speculated    int // TaskSpeculated events
	SpecWon       int // TaskSpeculated events with Won set

	// External shuffle service activity (zero when the service is off).
	// Byte totals must match the shuffle.service.{pushed,merged,served}_bytes
	// counter deltas for the run.
	ServicePushes int
	ServiceMerges int
	ServiceServes int
	PushedBytes   int64
	MergedBytes   int64
	ServedBytes   int64
}

// Totals sums shuffle-read bytes over every task attempt in the log —
// the numbers that must match the shuffle.fetch.bytes_{local,remote}
// counter deltas for the run.
func (r *Report) Totals() (local, remote int64) {
	for _, j := range r.Jobs {
		for _, s := range j.Stages {
			for _, t := range s.Tasks {
				local += t.BytesLocal
				remote += t.BytesRemote
			}
		}
	}
	return local, remote
}

// Analyze replays an event log into per-job, per-stage, per-task
// summaries. Events may arrive interleaved across concurrent tasks; only
// ordering between a stage's submission and completion is assumed.
func Analyze(events []Event) *Report {
	r := &Report{Events: events}
	jobs := map[int]*JobSummary{}
	stages := map[int]*StageSummary{}
	batches := map[int]*BatchSummary{}
	batchOf := func(id int) *BatchSummary {
		b, ok := batches[id]
		if !ok {
			b = &BatchSummary{Batch: id}
			batches[id] = b
			r.Batches = append(r.Batches, b)
		}
		return b
	}
	jobOf := func(id int) *JobSummary {
		j, ok := jobs[id]
		if !ok {
			j = &JobSummary{Job: id}
			jobs[id] = j
			r.Jobs = append(r.Jobs, j)
		}
		return j
	}
	for _, e := range events {
		switch e.Type {
		case EvJobStart:
			j := jobOf(e.Job)
			j.Start = e.VT
		case EvJobEnd:
			j := jobOf(e.Job)
			j.End = e.VT
			j.Err = e.Err
		case EvStageSubmitted:
			s := &StageSummary{
				Job: e.Job, Stage: e.Stage, Name: e.StageName, Kind: e.StageKind,
				Submitted: e.VT, Width: e.Tasks,
			}
			stages[e.Stage] = s
			j := jobOf(e.Job)
			j.Stages = append(j.Stages, s)
		case EvStageCompleted:
			if s := stages[e.Stage]; s != nil {
				s.Completed = e.VT
			}
		case EvTaskEnd:
			s := stages[e.Stage]
			if s == nil {
				continue
			}
			t := TaskSummary{
				Partition: e.Partition, Attempt: e.Attempt, Executor: e.Executor,
				Start: e.Start, End: e.VT, FetchWait: e.FetchWait,
				Records: e.Records, BytesLocal: e.BytesLocal, BytesRemote: e.BytesRemote,
				Err:   e.Err,
				MapLo: e.MapLo, MapHi: e.MapHi, Coalesced: e.Coalesced,
				Speculative: e.Speculative,
			}
			s.Tasks = append(s.Tasks, t)
			if e.Attempt > 0 {
				s.Retries++
			}
			if t.Err == "" {
				s.TaskTime += t.Duration()
				s.FetchWait += t.FetchWait
				s.Records += t.Records
				s.BytesLocal += t.BytesLocal
				s.BytesRemote += t.BytesRemote
			}
		case EvStageAdapted:
			r.AdaptedStages++
			r.Splits += e.Splits
			r.Coalesces += e.Coalesces
			if s := stages[e.Stage]; s != nil {
				s.Splits += e.Splits
				s.Coalesces += e.Coalesces
			}
		case EvTaskSpeculated:
			r.Speculated++
			if e.Won {
				r.SpecWon++
			}
			if s := stages[e.Stage]; s != nil {
				s.Speculated++
				if e.Won {
					s.SpecWon++
				}
			}
		case EvExecutorLost:
			r.Lost++
		case EvExecutorReplaced:
			r.Replaced++
		case EvFetchFailed:
			r.FetchFails++
		case EvCollectiveOp:
			r.Collective++
		case EvShufflePush:
			r.ServicePushes++
			r.PushedBytes += int64(e.Bytes)
		case EvShuffleMerge:
			r.ServiceMerges++
			r.MergedBytes += int64(e.Bytes)
		case EvShuffleServe:
			r.ServiceServes++
			r.ServedBytes += int64(e.Bytes)
		case EvBatchSubmitted:
			b := batchOf(e.Batch)
			b.Ready = e.VT
			b.Events = e.Records
			b.Blocks = e.Blocks
			b.RateLimit = e.RateLimit
		case EvBatchCompleted:
			b := batchOf(e.Batch)
			b.Start = e.Start
			b.End = e.VT
			b.SchedDelay = e.SchedDelay
			b.Err = e.Err
		}
	}
	sort.Slice(r.Batches, func(a, b int) bool { return r.Batches[a].Batch < r.Batches[b].Batch })
	sort.Slice(r.Jobs, func(a, b int) bool { return r.Jobs[a].Job < r.Jobs[b].Job })
	for _, j := range r.Jobs {
		sort.Slice(j.Stages, func(a, b int) bool { return j.Stages[a].Submitted < j.Stages[b].Submitted })
		for _, s := range j.Stages {
			sort.Slice(s.Tasks, func(a, b int) bool {
				if s.Tasks[a].Partition != s.Tasks[b].Partition {
					return s.Tasks[a].Partition < s.Tasks[b].Partition
				}
				return s.Tasks[a].Attempt < s.Tasks[b].Attempt
			})
		}
	}
	return r
}

// TimelineTable renders the stage timeline: each stage's submission and
// completion in virtual time, its width, how many attempts ran, the
// task-time p50/max skew, and any adaptive re-planning or speculation.
func (r *Report) TimelineTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Stage timeline (virtual time)",
		Columns: []string{"Job", "Stage", "Kind", "Name", "Submitted", "Completed", "Duration", "Tasks", "Attempts", "TaskP50", "TaskMax", "Skew", "Adapted"},
	}
	for _, j := range r.Jobs {
		for _, s := range j.Stages {
			p50, max, skew := s.TaskTimes()
			adapted := ""
			if s.Splits > 0 || s.Coalesces > 0 {
				adapted = fmt.Sprintf("%d split / %d coalesced", s.Splits, s.Coalesces)
			}
			if s.Speculated > 0 {
				if adapted != "" {
					adapted += ", "
				}
				adapted += fmt.Sprintf("%d spec (%d won)", s.Speculated, s.SpecWon)
			}
			t.AddRow(j.Job, s.Stage, s.Kind, s.Name,
				s.Submitted, s.Completed, s.Duration(), s.Width, len(s.Tasks),
				p50, max, fmt.Sprintf("%.2f", skew), adapted)
		}
	}
	if r.AdaptedStages+r.Speculated > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"adaptive: %d stages re-planned (%d partitions split, %d coalesce groups); speculation: %d attempts, %d won",
			r.AdaptedStages, r.Splits, r.Coalesces, r.Speculated, r.SpecWon))
	}
	if r.Lost+r.Replaced+r.FetchFails > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"faults: %d executors lost, %d replaced, %d fetch failures",
			r.Lost, r.Replaced, r.FetchFails))
	}
	if r.ServicePushes+r.ServiceServes > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"shuffle service: pushed %d B in %d blocks, merged %d B in %d runs, served %d B in %d fetches",
			r.PushedBytes, r.ServicePushes, r.MergedBytes, r.ServiceMerges,
			r.ServedBytes, r.ServiceServes))
	}
	return t
}

// BatchTable renders the streaming micro-batch timeline: per batch, its
// data-ready / start / end stamps, the scheduling delay and processing
// time, the ingest volume, and the backpressure limit in force. Empty when
// the log records no streaming run.
func (r *Report) BatchTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Micro-batch timeline (virtual time)",
		Columns: []string{"Batch", "Ready", "Start", "End", "SchedDelay", "Proc", "Events", "Blocks", "RateLimit", "Err"},
	}
	var events int64
	for _, b := range r.Batches {
		limit := "-"
		if b.RateLimit > 0 {
			limit = fmt.Sprintf("%.0f/s", b.RateLimit)
		}
		t.AddRow(b.Batch, b.Ready, b.Start, b.End, b.SchedDelay, b.Proc(),
			b.Events, b.Blocks, limit, b.Err)
		events += b.Events
	}
	if len(r.Batches) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%d batches, %d events ingested (must match the streaming.events.ingested counter delta)",
			len(r.Batches), events))
	}
	return t
}

// BreakdownTable renders the per-stage shuffle-wait vs. compute split —
// the decomposition the paper's §V argument rests on.
func (r *Report) BreakdownTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Per-stage shuffle-wait vs. compute (summed over tasks)",
		Columns: []string{"Job", "Stage", "Kind", "TaskTime", "FetchWait", "Compute", "Wait%", "BytesLocal", "BytesRemote", "Records", "Retries"},
	}
	for _, j := range r.Jobs {
		for _, s := range j.Stages {
			compute := s.TaskTime - s.FetchWait
			pct := 0.0
			if s.TaskTime > 0 {
				pct = 100 * float64(s.FetchWait) / float64(s.TaskTime)
			}
			t.AddRow(j.Job, s.Stage, s.Kind, s.TaskTime, s.FetchWait, compute,
				fmt.Sprintf("%.1f", pct), s.BytesLocal, s.BytesRemote, s.Records, s.Retries)
		}
	}
	return t
}

// CriticalPathTable renders, per job, the path that bounds its virtual
// completion time: stages run sequentially, so the job's critical path is
// each stage's slowest task. The fetch-wait share of those gating tasks
// is the part a faster interconnect can remove.
func (r *Report) CriticalPathTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Critical path (slowest task per stage)",
		Columns: []string{"Job", "JobTime", "Stage", "GatingTask", "Executor", "Duration", "FetchWait", "Wait%"},
	}
	for _, j := range r.Jobs {
		for _, s := range j.Stages {
			slow := s.SlowestTask()
			pct := 0.0
			if slow.Duration() > 0 {
				pct = 100 * float64(slow.FetchWait) / float64(slow.Duration())
			}
			t.AddRow(j.Job, j.Duration(), s.Stage,
				slow.Label(), slow.Executor,
				slow.Duration(), slow.FetchWait, fmt.Sprintf("%.1f", pct))
		}
	}
	return t
}
