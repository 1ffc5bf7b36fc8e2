package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Emit(Event{Type: EvJobStart})
	b.Subscribe(ListenerFunc(func(Event) {}))
}

func TestBusFanOut(t *testing.T) {
	b := NewBus()
	var a, c Collector
	b.Subscribe(&a)
	b.Subscribe(&c)
	b.Emit(Event{Type: EvTaskStart, Job: 3, Partition: 7})
	for _, col := range []*Collector{&a, &c} {
		evs := col.Events()
		if len(evs) != 1 || evs[0].Type != EvTaskStart || evs[0].Partition != 7 {
			t.Fatalf("listener got %+v", evs)
		}
		if evs[0].Wall.IsZero() {
			t.Fatal("Emit did not stamp the wall clock")
		}
	}
}

func TestBusPreservesCallerWallStamp(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Subscribe(&c)
	want := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	b.Emit(Event{Type: EvJobStart, Wall: want})
	if got := c.Events()[0].Wall; !got.Equal(want) {
		t.Fatalf("wall = %v, want %v", got, want)
	}
}

// TestBusConcurrentEmit hammers one bus from many goroutines — the shape
// of executor task goroutines emitting TaskEnd concurrently — and is the
// test the CI obs shard runs under -race.
func TestBusConcurrentEmit(t *testing.T) {
	b := NewBus()
	var c Collector
	b.Subscribe(&c)
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.Emit(Event{Type: EvTaskEnd, Job: g, Partition: i, Records: int64(i)})
				if i == perG/2 {
					// Subscription racing emission must also be clean.
					b.Subscribe(ListenerFunc(func(Event) {}))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Events()); got != goroutines*perG {
		t.Fatalf("collected %d events, want %d", got, goroutines*perG)
	}
}

func TestLogWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	lw, err := NewLogWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus()
	b.Subscribe(lw)

	in := []Event{
		{Type: EvJobStart, VT: 100, Job: 0},
		{Type: EvStageSubmitted, VT: 110, Job: 0, Stage: 1, StageName: "s", StageKind: "ResultStage", Tasks: 4},
		{Type: EvTaskEnd, VT: 400, Job: 0, Stage: 1, Partition: 2, Attempt: 1,
			Executor: "exec-0", Start: 120, Records: 9, BytesLocal: 10, BytesRemote: 20, FetchWait: 7},
		{Type: EvJobEnd, VT: 500, Job: 0, Err: "boom"},
	}
	for _, e := range in {
		b.Emit(e)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("replayed %d events, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		got.Wall = time.Time{} // Emit stamps it; not part of the comparison
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
		if out[i].Wall.IsZero() {
			t.Fatalf("event %d lost its wall stamp", i)
		}
	}
}

func TestDecodeLogSkipsBlankAndReportsLine(t *testing.T) {
	good := `{"type":"JobStart","vt":1,"wall":"2022-07-01T00:00:00Z","job":0}`
	evs, err := DecodeLog(strings.NewReader(good + "\n\n" + good + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	_, err = DecodeLog(strings.NewReader(good + "\n{broken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestReadLogMissingFile(t *testing.T) {
	if _, err := ReadLog(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("ReadLog on a missing file succeeded")
	}
}

func TestLogWriterStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	lw, err := NewLogWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	// Writes after close must not panic, and the second Close must still
	// report the original (nil) outcome deterministically.
	lw.OnEvent(Event{Type: EvJobStart})
	_ = lw.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// syntheticRun builds a two-stage job log with a retry, an executor loss,
// and a fetch failure — every analysis path in one small fixture.
func syntheticRun() []Event {
	return []Event{
		{Type: EvJobStart, VT: 1000, Job: 0},
		{Type: EvStageSubmitted, VT: 1000, Job: 0, Stage: 0, StageName: "map", StageKind: "ShuffleMapStage", Tasks: 2},
		{Type: EvTaskStart, VT: 1000, Job: 0, Stage: 0, Partition: 0, Executor: "exec-0"},
		{Type: EvTaskStart, VT: 1000, Job: 0, Stage: 0, Partition: 1, Executor: "exec-1"},
		{Type: EvTaskEnd, VT: 1400, Job: 0, Stage: 0, Partition: 0, Executor: "exec-0",
			Start: 1000, Records: 50, BytesLocal: 0, BytesRemote: 0},
		// Partition 1 attempt 0 dies with the executor; attempt 1 succeeds.
		{Type: EvExecutorLost, VT: 1300, Executor: "exec-1", Cause: "executor timeout"},
		{Type: EvTaskEnd, VT: 1300, Job: 0, Stage: 0, Partition: 1, Executor: "exec-1",
			Start: 1000, Err: "executor lost"},
		{Type: EvExecutorReplaced, VT: 1350, Executor: "exec-1", Replacement: "exec-1b"},
		{Type: EvTaskEnd, VT: 1900, Job: 0, Stage: 0, Partition: 1, Attempt: 1, Executor: "exec-1b",
			Start: 1400, Records: 50},
		{Type: EvStageCompleted, VT: 1900, Job: 0, Stage: 0, StageName: "map", StageKind: "ShuffleMapStage"},
		{Type: EvStageSubmitted, VT: 1900, Job: 0, Stage: 1, StageName: "reduce", StageKind: "ResultStage", Tasks: 2},
		{Type: EvFetchFailed, VT: 2000, Job: 0, ShuffleID: 1, MapID: 1, ReduceID: 0, Executor: "exec-1", Err: "gone"},
		{Type: EvTaskEnd, VT: 2500, Job: 0, Stage: 1, Partition: 0, Executor: "exec-0",
			Start: 1900, Records: 40, BytesLocal: 100, BytesRemote: 300, FetchWait: 400},
		{Type: EvTaskEnd, VT: 2300, Job: 0, Stage: 1, Partition: 1, Executor: "exec-1b",
			Start: 1900, Records: 60, BytesLocal: 200, BytesRemote: 500, FetchWait: 100},
		{Type: EvStageCompleted, VT: 2500, Job: 0, Stage: 1, StageName: "reduce", StageKind: "ResultStage"},
		{Type: EvCollectiveOp, VT: 2600, Op: 1, Kind: "bcast", Bytes: 64, Ranks: 3},
		{Type: EvJobEnd, VT: 2600, Job: 0},
	}
}

func TestAnalyzeSyntheticRun(t *testing.T) {
	r := Analyze(syntheticRun())
	if len(r.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(r.Jobs))
	}
	j := r.Jobs[0]
	if j.Start != 1000 || j.End != 2600 || j.Err != "" {
		t.Fatalf("job = %+v", j)
	}
	if j.Duration() != 1600 {
		t.Fatalf("job duration = %d, want 1600", j.Duration())
	}
	if len(j.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(j.Stages))
	}

	mapStage, reduceStage := j.Stages[0], j.Stages[1]
	if mapStage.Name != "map" || reduceStage.Name != "reduce" {
		t.Fatalf("stage order: %q then %q", mapStage.Name, reduceStage.Name)
	}
	if mapStage.Width != 2 || len(mapStage.Tasks) != 3 {
		t.Fatalf("map stage width=%d attempts=%d, want 2/3", mapStage.Width, len(mapStage.Tasks))
	}
	if mapStage.Retries != 1 {
		t.Fatalf("map retries = %d, want 1", mapStage.Retries)
	}
	// The failed attempt must not pollute the success aggregates.
	if mapStage.Records != 100 {
		t.Fatalf("map records = %d, want 100", mapStage.Records)
	}
	// Tasks sorted by (partition, attempt): p0.0, p1.0(failed), p1.1.
	if mapStage.Tasks[1].Err == "" || mapStage.Tasks[2].Attempt != 1 {
		t.Fatalf("task sort order wrong: %+v", mapStage.Tasks)
	}

	if reduceStage.FetchWait != 500 || reduceStage.TaskTime != (2500-1900)+(2300-1900) {
		t.Fatalf("reduce aggregates: wait=%d taskTime=%d", reduceStage.FetchWait, reduceStage.TaskTime)
	}
	if reduceStage.BytesLocal != 300 || reduceStage.BytesRemote != 800 {
		t.Fatalf("reduce bytes: local=%d remote=%d", reduceStage.BytesLocal, reduceStage.BytesRemote)
	}
	slow := reduceStage.SlowestTask()
	if slow.Partition != 0 || slow.Duration() != 600 {
		t.Fatalf("slowest reduce task = %+v", slow)
	}
	if c := slow.Duration() - slow.FetchWait; c != 200 {
		t.Fatalf("slowest compute = %d, want 200", c)
	}

	local, remote := r.Totals()
	if local != 300 || remote != 800 {
		t.Fatalf("totals: local=%d remote=%d", local, remote)
	}
	if r.Lost != 1 || r.Replaced != 1 || r.FetchFails != 1 || r.Collective != 1 {
		t.Fatalf("fault counts: %+v", r)
	}
}

func TestAnalyzeTables(t *testing.T) {
	r := Analyze(syntheticRun())
	var sb strings.Builder
	timeline := r.TimelineTable()
	if len(timeline.Rows) != 2 {
		t.Fatalf("timeline rows = %d, want 2", len(timeline.Rows))
	}
	timeline.WriteText(&sb)
	if !strings.Contains(sb.String(), "1 executors lost") {
		t.Fatalf("timeline missing fault note:\n%s", sb.String())
	}

	breakdown := r.BreakdownTable()
	if len(breakdown.Rows) != 2 {
		t.Fatalf("breakdown rows = %d, want 2", len(breakdown.Rows))
	}
	sb.Reset()
	breakdown.WriteMarkdown(&sb)
	// Reduce stage: 500 wait of 1000 task time = 50.0%.
	if !strings.Contains(sb.String(), "50.0") {
		t.Fatalf("breakdown missing wait%%:\n%s", sb.String())
	}

	critical := r.CriticalPathTable()
	if len(critical.Rows) != 2 {
		t.Fatalf("critical rows = %d, want 2", len(critical.Rows))
	}
	sb.Reset()
	critical.WriteText(&sb)
	if !strings.Contains(sb.String(), "p0.0") {
		t.Fatalf("critical path missing gating task:\n%s", sb.String())
	}
}

func TestAnalyzeTolerance(t *testing.T) {
	// A TaskEnd for an unknown stage is dropped (no phantom jobs), a stage
	// with no completion and a job with no end are kept: Analyze must not
	// panic and must keep what it can.
	evs := []Event{
		{Type: EvTaskEnd, VT: 10, Job: 9, Stage: 99, Partition: 0},
		{Type: EvJobStart, VT: 1, Job: 1},
		{Type: EvStageSubmitted, VT: 2, Job: 1, Stage: 0, Tasks: 1},
	}
	r := Analyze(evs)
	var ids []string
	for _, j := range r.Jobs {
		ids = append(ids, fmt.Sprint(j.Job))
	}
	if len(r.Jobs) != 1 || ids[0] != "1" {
		t.Fatalf("jobs = %v, want [1]", ids)
	}
	if s := r.Jobs[0].Stages[0]; s.Completed != 0 || s.Width != 1 {
		t.Fatalf("incomplete stage = %+v", s)
	}
}
