package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/streaming"
	"mpi4spark/internal/vtime"
)

// Streaming experiment shape: two receivers feed a shared key space, the
// pipeline is an incremental windowed count (ReduceByKeyAndWindow with
// inverse subtraction, window 4 intervals, slide 2) — the canonical
// Spark Streaming stateful workload, driving both the shuffle path and
// the in-place local checkpoint every fifth slide.
const (
	streamInterval  = 8 * time.Millisecond
	streamReceivers = 2
	streamKeyRange  = 512
	streamMinRate   = 50_000 // backpressure floor, events/sec
)

// streamMix is splitmix64's finalizer, decorrelating sequential event
// numbers into keys.
func streamMix(x int64) int64 {
	z := uint64(x) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

// streamSig folds one windowed output pair into an order-insensitive
// per-batch signature (XOR of per-pair mixes, batch-tagged).
func streamSig(batch int, k, v int64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range [3]int64{int64(batch), k, v} {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// streamTrial is one measured streaming run.
type streamTrial struct {
	stats    []streaming.BatchStat
	checksum uint64
	// Counter deltas for the run.
	offered, ingested, limited int64
	finalLimit                 float64
	backlog                    int64 // events still queued at receivers
}

// p95Proc is the trial's 95th-percentile batch processing time.
func (t *streamTrial) p95Proc() vtime.Stamp {
	procs := make([]vtime.Stamp, len(t.stats))
	for i, b := range t.stats {
		procs[i] = b.Proc()
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	return procs[max(int(math.Ceil(0.95*float64(len(procs))))-1, 0)]
}

// runStreamingTrial builds a fresh cluster and runs the windowed-count
// pipeline for nBatches at a total offered rate (split across receivers).
func runStreamingTrial(spec ClusterSpec, rate float64, backpressure bool, nBatches int) (*streamTrial, error) {
	trial := &streamTrial{}
	var sc *streaming.StreamingContext
	var handles []streaming.ReceiverHandle
	d, err := Cell{
		Spec:     spec,
		Counters: []string{streaming.CounterEventsOffered, streaming.CounterEventsIngested, streaming.CounterBackpressureLimits},
		Setup: func(cl *Cluster) (err error) {
			sc, err = streaming.NewContext(cl.Ctx, streaming.Config{
				BatchInterval: streamInterval,
				Backpressure:  backpressure,
				MinRate:       streamMinRate,
			})
			if err != nil {
				return err
			}
			var ins []*streaming.DStream[spark.Pair[int64, int64]]
			for i := 0; i < streamReceivers; i++ {
				idx := int64(i)
				in, h, err := streaming.Receive(sc, streaming.ReceiverConfig[spark.Pair[int64, int64]]{
					Name:       fmt.Sprintf("gen-%d", i),
					Rate:       rate / streamReceivers,
					EventBytes: 16,
					Gen: func(seq int64) spark.Pair[int64, int64] {
						// Interleave the receivers' sequence spaces so their key
						// streams differ but stay a pure function of (receiver, seq).
						return spark.Pair[int64, int64]{K: streamMix(seq*streamReceivers+idx) % streamKeyRange, V: 1}
					},
				})
				if err != nil {
					return err
				}
				handles = append(handles, h)
				ins = append(ins, in)
			}
			counts, err := streaming.ReduceByKeyAndWindow(streaming.Union(ins[0], ins[1]), int64Conf(spec.Workers*spec.SlotsPerWorker),
				func(a, b int64) int64 { return a + b },
				func(a, b int64) int64 { return a - b },
				4*streamInterval, 2*streamInterval,
				func(_, v int64) bool { return v != 0 })
			if err != nil {
				return err
			}
			streaming.Foreach(counts, func(batch int, items []spark.Pair[int64, int64]) error {
				for _, p := range items {
					trial.checksum ^= streamSig(batch, p.K, p.V)
				}
				return nil
			})
			return nil
		},
		Job: func(*Cluster) error {
			if err := sc.Run(nBatches); err != nil {
				return err
			}
			trial.stats = sc.Stats()
			trial.finalLimit = sc.RateLimit()
			for _, h := range handles {
				trial.backlog += h.Backlog()
			}
			return nil
		},
	}.Run()
	if err != nil {
		return nil, err
	}
	trial.offered = d[streaming.CounterEventsOffered]
	trial.ingested = d[streaming.CounterEventsIngested]
	trial.limited = d[streaming.CounterBackpressureLimits]

	// Reconcile the driver-side ingest counter against the batch records:
	// every admitted event must be registered exactly once.
	var admitted int64
	for _, b := range trial.stats {
		admitted += b.Events
	}
	if trial.ingested != admitted {
		return nil, fmt.Errorf("streaming: ingested counter %d != admitted events %d", trial.ingested, admitted)
	}
	if trial.offered != trial.ingested+trial.backlog {
		return nil, fmt.Errorf("streaming: offered %d != ingested %d + backlog %d",
			trial.offered, trial.ingested, trial.backlog)
	}
	return trial, nil
}

// Streaming sweep shape. The ladder starts at streamBaseRate total
// events/sec and doubles until p95 batch time exceeds the interval; the
// probe leg re-runs every backend at the base rate so outputs are
// comparable bit-for-bit.
const (
	streamBaseRate     = 8_000_000
	streamLadderRungs  = 6
	streamLadderBatch  = 12
	streamProbeBatches = 16
)

// runStreaming measures every backend and renders the
// sustained-throughput / backpressure table. Per backend: the
// sustained-throughput ladder (the highest rate the backend sustains, p95
// batch processing time within the batch interval), the fixed-rate
// determinism probe (run twice — the replay must be bit-identical, stats
// and all — and its output checksum must match every other backend's), and
// the overload leg's counter-verified backpressure evidence. dir, when
// non-empty, receives each probe run's batch timeline
// (streaming-<backend>.jsonl).
func runStreaming(o Options, dir string) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: fmt.Sprintf("Streaming micro-batches (%v interval, windowed count, %d receivers): sustained rate and backpressure",
			streamInterval, streamReceivers),
		Columns: []string{"Backend", "Sustained", "p95Proc", "Overload", "Offered", "Ingested", "Limited", "PIDLimit", "OverloadP95"},
		Notes: []string{
			"sustained = highest rung (x2 ladder) with p95 batch processing time <= batch interval, backpressure off",
			"overload leg offers 4x sustained with backpressure on; ingested < offered with the PID cap engaged (Limited intervals)",
			"identical windowed-output checksums across all backends and across a replayed run (bit-identical results)",
			"ingest counter reconciled per run: offered == ingested + receiver backlog",
		},
	}
	var first *streamTrial
	err := sweep(backends, dir, "streaming", []string{""}, func(b spark.Backend, _, eventLog string) error {
		spec := ClusterSpec{System: Frontera, Workers: o.Workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker}

		// Ladder: double the offered rate until the backend falls behind.
		var sustained int64
		var sustainedP95 vtime.Stamp
		for rung := 0; rung < streamLadderRungs; rung++ {
			rate := float64(int64(streamBaseRate) << rung)
			trial, err := runStreamingTrial(spec, rate, false, streamLadderBatch)
			if err != nil {
				return fmt.Errorf("ladder %.0f ev/s: %w", rate, err)
			}
			p95 := trial.p95Proc()
			if p95 > vtime.Duration(streamInterval) {
				break
			}
			sustained, sustainedP95 = int64(rate), p95
		}
		if sustained == 0 {
			return fmt.Errorf("base rate %d ev/s not sustained", streamBaseRate)
		}

		// Probe: fixed base rate on every backend, run twice; the replay must
		// reproduce the run exactly.
		probeSpec := spec
		probeSpec.EventLogPath = eventLog
		probe, err := runStreamingTrial(probeSpec, streamBaseRate, false, streamProbeBatches)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		replay, err := runStreamingTrial(spec, streamBaseRate, false, streamProbeBatches)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if replay.checksum != probe.checksum {
			return fmt.Errorf("replay checksum %x != %x", replay.checksum, probe.checksum)
		}
		if len(replay.stats) != len(probe.stats) {
			return fmt.Errorf("replay ran %d batches, probe %d", len(replay.stats), len(probe.stats))
		}
		// Results and the ingest schedule are exactly reproducible; processing
		// stamps wobble by microseconds with task-goroutine interleaving (as
		// everywhere in the engine), so they are not compared.
		for i := range probe.stats {
			if replay.stats[i].Events != probe.stats[i].Events || replay.stats[i].Blocks != probe.stats[i].Blocks {
				return fmt.Errorf("replay batch %d ingest diverged: %+v != %+v", i+1, replay.stats[i], probe.stats[i])
			}
		}
		if first == nil {
			first = probe
		} else if probe.checksum != first.checksum {
			return fmt.Errorf("probe checksum diverged: got %x, want %x", probe.checksum, first.checksum)
		}

		// Overload: 4x the sustained rate with backpressure on. The PID cap
		// must engage (Limited > 0) and hold ingest below offer.
		overloadRate := 4 * sustained
		over, err := runStreamingTrial(spec, float64(overloadRate), true, streamProbeBatches)
		if err != nil {
			return fmt.Errorf("overload: %w", err)
		}
		if over.limited == 0 {
			return fmt.Errorf("overload: backpressure never limited ingest")
		}
		if over.ingested >= over.offered {
			return fmt.Errorf("overload: ingested %d not below offered %d", over.ingested, over.offered)
		}
		t.AddRow(b, fmt.Sprintf("%d/s", sustained), sustainedP95, fmt.Sprintf("%d/s", overloadRate),
			over.offered, over.ingested, over.limited, fmt.Sprintf("%.0f/s", over.finalLimit), over.p95Proc())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
