package streaming_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/harness"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/streaming"
)

// windowBatches is how many batches the window tests run: twelve slides,
// two of them checkpoints, each followed by incremental slides from the
// checkpointed window.
const windowBatches = 24

// TestWindowRejectsNoPartitions: a window merges inputs of one partition
// count, so a conf without one is a config error at construction, with or
// without an inverse, not a divide by zero at the first checkpoint.
func TestWindowRejectsNoPartitions(t *testing.T) {
	cl := testCluster(t, spark.BackendVanilla)
	sc, err := streaming.NewContext(cl.Ctx, streaming.Config{BatchInterval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := streaming.Receive(sc, streaming.ReceiverConfig[spark.Pair[int64, int64]]{
		Rate: 100_000,
		Gen:  func(seq int64) spark.Pair[int64, int64] { return spark.Pair[int64, int64]{K: seq % 5, V: 1} },
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(a, b int64) int64 { return a + b }
	for _, invF := range []func(a, b int64) int64{nil, func(a, b int64) int64 { return a - b }} {
		_, err := streaming.ReduceByKeyAndWindow(in, int64Conf(0), sum, invF, 4*testInterval, 2*testInterval, nil)
		var ce *spark.ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("inverse %v: got %v, want *spark.ConfigError", invF != nil, err)
		}
	}
}

// stageCounter counts the shuffle map stages each job submits, and their
// tasks.
type stageCounter struct {
	mu       sync.Mutex
	maps     map[int]int // job -> shuffle map stages
	mapTasks int
	jobs     int
}

func (c *stageCounter) OnEvent(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case e.Type == obs.EvJobStart:
		c.jobs++
	case e.Type == obs.EvStageSubmitted && e.StageKind == "ShuffleMapStage":
		c.maps[e.Job]++
		c.mapTasks += e.Tasks
	}
}

// countStages subscribes a stageCounter to the cluster's bus.
func countStages(cl *harness.Cluster) *stageCounter {
	c := &stageCounter{maps: make(map[int]int)}
	cl.Ctx.Bus().Subscribe(c)
	return c
}

// TestWindowSlideRunsNoShuffle: an incremental slide merges the previous
// window and the partials in place, so a window job submits no shuffle map
// stage beyond its entering partials' (two per slide), and the run submits
// exactly one per batch: each batch's partial reduce.
func TestWindowSlideRunsNoShuffle(t *testing.T) {
	cl, sc, counts := windowedCount(t, spark.BackendVanilla, int64Conf(4), true)
	stages := countStages(cl)
	streaming.Foreach(counts, func(int, []spark.Pair[int64, int64]) error { return nil })
	if err := sc.Run(windowBatches); err != nil {
		t.Fatal(err)
	}
	total := 0
	for job, n := range stages.maps {
		if n > 2 {
			t.Errorf("job %d submitted %d shuffle map stages, want at most the slide's 2 partials", job, n)
		}
		total += n
	}
	if total != windowBatches {
		t.Errorf("%d shuffle map stages over %d jobs, want one per batch (%d)", total, stages.jobs, windowBatches)
	}
}

// countingInt64 is Int64Codec counting its calls: a shuffle encodes each
// record it writes once, plus a map task's first record once more to size
// its buffer, and decodes a record once per read of its block.
type countingInt64 struct{ enc, dec *atomic.Int64 }

func (c countingInt64) Encode(buf *bytebuf.Buf, v int64) {
	c.enc.Add(1)
	buf.WriteInt64(v)
}

func (c countingInt64) Decode(buf *bytebuf.Buf) (int64, error) {
	c.dec.Add(1)
	return buf.ReadInt64()
}

// TestWindowPartialReducedOnce: a partial's reduce side runs once, when
// it enters the window; the slide that drops it reads it from cache. Every
// shuffled record is therefore decoded once.
func TestWindowPartialReducedOnce(t *testing.T) {
	var enc, dec atomic.Int64
	conf := int64Conf(4)
	conf.Codec.Val = countingInt64{enc: &enc, dec: &dec}
	cl, sc, counts := windowedCount(t, spark.BackendVanilla, conf, true)
	stages := countStages(cl)
	streaming.Foreach(counts, func(int, []spark.Pair[int64, int64]) error { return nil })
	if err := sc.Run(windowBatches); err != nil {
		t.Fatal(err)
	}
	written := enc.Load() - int64(stages.mapTasks)
	if written <= 0 || dec.Load() != written {
		t.Fatalf("%d shuffled values written, %d decoded: a partial's reduce side ran again", written, dec.Load())
	}
}

// TestForgottenBatchesLeaveTheCache: the partials and windows a stream no
// longer remembers are unpersisted, so over 40 batches the executors hold
// at most the remember depth (window plus slide: 6 batches) times the
// partition count (4) of each of the two persisted streams.
func TestForgottenBatchesLeaveTheCache(t *testing.T) {
	const bound = 2 * 6 * 4
	cl, sc, counts := windowedCount(t, spark.BackendVanilla, int64Conf(4), true)
	most := 0
	streaming.Foreach(counts, func(int, []spark.Pair[int64, int64]) error {
		most = max(most, cl.Ctx.CachedPartitions())
		return nil
	})
	if err := sc.Run(40); err != nil {
		t.Fatal(err)
	}
	most = max(most, cl.Ctx.CachedPartitions())
	if most > bound {
		t.Fatalf("executors held %d cached partitions, want at most %d", most, bound)
	}
}
