package streaming_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"mpi4spark/internal/harness"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/streaming"
)

const testInterval = time.Millisecond

func testCluster(t *testing.T, backend spark.Backend) *harness.Cluster {
	t.Helper()
	cl, err := harness.BuildCluster(harness.ClusterSpec{
		System:         harness.Frontera,
		Workers:        2,
		Backend:        backend,
		SlotsPerWorker: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func int64Conf(parts int) spark.ShuffleConf[int64, int64] {
	return spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: parts,
	}
}

// sortPairs canonicalizes a collected batch for comparison.
func sortPairs(ps []spark.Pair[int64, int64]) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].K != ps[j].K {
			return ps[i].K < ps[j].K
		}
		return ps[i].V < ps[j].V
	})
}

// TestPipelineMatchesExpected checks the per-batch path end to end:
// receiver admission at an exact rate, a shuffle reduce, and the collected
// outputs against a pure-Go model of the same stream (a count of the even
// events per key: odd events carry zero).
func TestPipelineMatchesExpected(t *testing.T) {
	cl := testCluster(t, spark.BackendVanilla)
	sc, err := streaming.NewContext(cl.Ctx, streaming.Config{BatchInterval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	const rate, nBatches, keys = 1_000_000, 6, 7 // 1000 events per batch exactly

	pairs, _, err := streaming.Receive(sc, streaming.ReceiverConfig[spark.Pair[int64, int64]]{
		Rate: rate,
		Gen: func(seq int64) spark.Pair[int64, int64] {
			return spark.Pair[int64, int64]{K: seq % keys, V: 1 - seq%2}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := streaming.ReduceByKey(pairs, int64Conf(4), func(a, b int64) int64 { return a + b })

	got := make(map[int]map[int64]int64)
	streaming.Foreach(counts, func(batch int, items []spark.Pair[int64, int64]) error {
		m := make(map[int64]int64)
		for _, p := range items {
			if _, dup := m[p.K]; dup {
				return fmt.Errorf("batch %d: key %d appears twice", batch, p.K)
			}
			m[p.K] = p.V
		}
		got[batch] = m
		return nil
	})

	snap := metrics.Snapshot()
	if err := sc.Run(nBatches); err != nil {
		t.Fatal(err)
	}

	perBatch := int64(rate) * int64(testInterval) / int64(time.Second)
	for b := 0; b < nBatches; b++ {
		want := make(map[int64]int64)
		for seq := int64(b) * perBatch; seq < int64(b+1)*perBatch; seq++ {
			if seq%2 == 0 {
				want[seq%keys]++
			}
		}
		if len(got[b+1]) != len(want) {
			t.Fatalf("batch %d: got %d keys, want %d", b+1, len(got[b+1]), len(want))
		}
		for k, v := range want {
			if got[b+1][k] != v {
				t.Fatalf("batch %d key %d: got %d, want %d", b+1, k, got[b+1][k], v)
			}
		}
	}

	wantEvents := int64(nBatches) * perBatch
	if d := snap.DeltaValue(streaming.CounterEventsOffered); d != wantEvents {
		t.Fatalf("offered counter = %d, want %d", d, wantEvents)
	}
	if d := snap.DeltaValue(streaming.CounterEventsIngested); d != wantEvents {
		t.Fatalf("ingested counter = %d, want %d (no backpressure: everything admitted)", d, wantEvents)
	}
	if d := snap.DeltaValue(streaming.CounterBatchesCompleted); d != nBatches {
		t.Fatalf("completed counter = %d, want %d", d, nBatches)
	}

	// The batch schedule itself: monotone submit/complete stamps, one
	// interval's events per batch.
	stats := sc.Stats()
	if len(stats) != nBatches {
		t.Fatalf("got %d batch stats", len(stats))
	}
	for i, b := range stats {
		if b.Events != perBatch {
			t.Fatalf("batch %d ingested %d events, want %d", b.Batch, b.Events, perBatch)
		}
		if i > 0 && b.Start < stats[i-1].End {
			t.Fatalf("batch %d started at %v before batch %d ended at %v", b.Batch, b.Start, stats[i-1].Batch, stats[i-1].End)
		}
	}
}

// windowedCount wires the two-receiver windowed count used by the harness
// experiment at test scale (window 4 batches, slide 2) onto a fresh
// cluster.
func windowedCount(t *testing.T, backend spark.Backend, conf spark.ShuffleConf[int64, int64], invertible bool) (*harness.Cluster, *streaming.StreamingContext, *streaming.DStream[spark.Pair[int64, int64]]) {
	t.Helper()
	cl := testCluster(t, backend)
	sc, err := streaming.NewContext(cl.Ctx, streaming.Config{BatchInterval: testInterval})
	if err != nil {
		t.Fatal(err)
	}
	var ins []*streaming.DStream[spark.Pair[int64, int64]]
	for i := 0; i < 2; i++ {
		idx := int64(i)
		in, _, err := streaming.Receive(sc, streaming.ReceiverConfig[spark.Pair[int64, int64]]{
			Rate: 400_000, // 400 events per batch per receiver
			Gen: func(seq int64) spark.Pair[int64, int64] {
				return spark.Pair[int64, int64]{K: (seq*2 + idx) % 13, V: 1}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	events := streaming.Union(ins[0], ins[1])
	var invF func(a, b int64) int64
	if invertible {
		invF = func(a, b int64) int64 { return a - b }
	}
	counts, err := streaming.ReduceByKeyAndWindow(events, conf,
		func(a, b int64) int64 { return a + b }, invF,
		4*testInterval, 2*testInterval,
		func(_, v int64) bool { return v != 0 })
	if err != nil {
		t.Fatal(err)
	}
	return cl, sc, counts
}

// windowedRun runs the windowed count and returns each output batch's
// sorted pairs.
func windowedRun(t *testing.T, backend spark.Backend, invertible bool, nBatches int) map[int][]spark.Pair[int64, int64] {
	t.Helper()
	_, sc, counts := windowedCount(t, backend, int64Conf(4), invertible)
	got := make(map[int][]spark.Pair[int64, int64])
	streaming.Foreach(counts, func(batch int, items []spark.Pair[int64, int64]) error {
		if items == nil {
			return nil
		}
		out := append([]spark.Pair[int64, int64](nil), items...)
		sortPairs(out)
		got[batch] = out
		return nil
	})
	if err := sc.Run(nBatches); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWindowInverseMatchesRecompute: the incremental (inverse-reduce)
// window must produce exactly what full recomputation produces, batch by
// batch, including across checkpoints.
func TestWindowInverseMatchesRecompute(t *testing.T) {
	plain := windowedRun(t, spark.BackendVanilla, false, 24)
	inc := windowedRun(t, spark.BackendVanilla, true, 24)
	if len(plain) == 0 {
		t.Fatal("no window outputs")
	}
	if len(inc) != len(plain) {
		t.Fatalf("incremental produced %d output batches, plain %d", len(inc), len(plain))
	}
	for b, want := range plain {
		if fmt.Sprint(inc[b]) != fmt.Sprint(want) {
			t.Fatalf("batch %d diverged:\nincremental: %v\nrecomputed:  %v", b, inc[b], want)
		}
	}
}

// TestWindowedResultsIdenticalAcrossTransports: the same stream on all
// four backends yields bit-identical windowed outputs.
func TestWindowedResultsIdenticalAcrossTransports(t *testing.T) {
	ref := windowedRun(t, spark.BackendVanilla, true, 24)
	for _, backend := range []spark.Backend{spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt} {
		got := windowedRun(t, backend, true, 24)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d output batches, want %d", backend, len(got), len(ref))
		}
		for b, want := range ref {
			if fmt.Sprint(got[b]) != fmt.Sprint(want) {
				t.Fatalf("%s batch %d diverged:\ngot:  %v\nwant: %v", backend, b, got[b], want)
			}
		}
	}
}

// TestBackpressureCapsIngest drives the pipeline far past the cluster's
// capacity with the PID controller on: ingest must be limited below
// offer, with the difference accounted as receiver backlog, and a replay
// must admit the identical per-batch schedule.
func TestBackpressureCapsIngest(t *testing.T) {
	run := func() ([]streaming.BatchStat, map[string]int64) {
		cl := testCluster(t, spark.BackendVanilla)
		sc, err := streaming.NewContext(cl.Ctx, streaming.Config{
			BatchInterval: testInterval,
			Backpressure:  true,
			MinRate:       10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs, h, err := streaming.Receive(sc, streaming.ReceiverConfig[spark.Pair[int64, int64]]{
			Rate: 200_000_000, // ~200k events/batch: far past capacity
			Gen: func(seq int64) spark.Pair[int64, int64] {
				return spark.Pair[int64, int64]{K: seq % 64, V: 1}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		counts := streaming.ReduceByKey(pairs, int64Conf(4), func(a, b int64) int64 { return a + b })
		streaming.Foreach(counts, func(int, []spark.Pair[int64, int64]) error { return nil })

		snap := metrics.Snapshot()
		if err := sc.Run(10); err != nil {
			t.Fatal(err)
		}
		deltas := map[string]int64{
			"offered":  snap.DeltaValue(streaming.CounterEventsOffered),
			"ingested": snap.DeltaValue(streaming.CounterEventsIngested),
			"limited":  snap.DeltaValue(streaming.CounterBackpressureLimits),
			"backlog":  h.Backlog(),
		}
		if sc.RateLimit() <= 0 {
			t.Fatal("controller never produced a rate limit")
		}
		return sc.Stats(), deltas
	}

	stats, d := run()
	if d["limited"] == 0 {
		t.Fatal("backpressure never limited an interval")
	}
	if d["ingested"] >= d["offered"] {
		t.Fatalf("ingested %d not below offered %d", d["ingested"], d["offered"])
	}
	if d["offered"] != d["ingested"]+d["backlog"] {
		t.Fatalf("offered %d != ingested %d + backlog %d (events lost or duplicated)",
			d["offered"], d["ingested"], d["backlog"])
	}
	// The first batch runs uncapped; once the estimator has a measurement
	// the cap must appear in the batch records.
	if stats[0].RateLimit != 0 {
		t.Fatalf("batch 1 ran with a rate limit %v before any measurement", stats[0].RateLimit)
	}
	capped := false
	for _, b := range stats[1:] {
		if b.RateLimit > 0 {
			capped = true
		}
	}
	if !capped {
		t.Fatal("no batch after the first recorded a rate limit")
	}

	// Replay. Arrivals are pure rate*time so the offered count is
	// replay-stable; admission is not, because the PID cap feeds back from
	// measured processing stamps, which (as everywhere in the engine)
	// wobble by microseconds with task-goroutine interleaving. What must
	// replay is the offered total, the cap engaging, and exact accounting.
	stats2, d2 := run()
	if len(stats2) != len(stats) {
		t.Fatalf("replay ran %d batches, want %d", len(stats2), len(stats))
	}
	if d2["offered"] != d["offered"] {
		t.Fatalf("replay offered %d, first run %d", d2["offered"], d["offered"])
	}
	if d2["limited"] == 0 {
		t.Fatal("replay: backpressure never limited an interval")
	}
	if d2["offered"] != d2["ingested"]+d2["backlog"] {
		t.Fatalf("replay offered %d != ingested %d + backlog %d",
			d2["offered"], d2["ingested"], d2["backlog"])
	}
}

// TestConfigValidation: nonsensical streaming knobs are rejected with the
// shared typed config error.
func TestConfigValidation(t *testing.T) {
	cl := testCluster(t, spark.BackendVanilla)
	bad := []streaming.Config{
		{BatchInterval: -time.Millisecond},
		{BatchInterval: 3},                      // shorter than one nanosecond per block
		{BatchInterval: 2*time.Millisecond + 2}, // four blocks do not tile it
		{MinRate: -5},
	}
	for i, cfg := range bad {
		_, err := streaming.NewContext(cl.Ctx, cfg)
		var ce *spark.ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("config %d: got %v, want *spark.ConfigError", i, err)
		}
	}
	if _, err := streaming.NewContext(cl.Ctx, streaming.Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// TestBlockRegistryRejectsShortRegistration asks the block registry with a
// payload one byte short of the 32 it reads: the asker gets an error back
// instead of waiting forever for a reply that never comes.
func TestBlockRegistryRejectsShortRegistration(t *testing.T) {
	cl := testCluster(t, spark.BackendVanilla)
	if _, err := streaming.NewContext(cl.Ctx, streaming.Config{BatchInterval: testInterval}); err != nil {
		t.Fatal(err)
	}
	exec := cl.Ctx.Executors()[0]
	done := make(chan error, 1)
	go func() {
		_, _, err := exec.Env().Ask(cl.Ctx.Driver().Addr(), streaming.BlockRegistryEndpoint, make([]byte, 31), cl.Ctx.Clock())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a 31-byte registration was acknowledged")
		}
		t.Logf("31-byte registration: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("a 31-byte registration got no reply")
	}
}
