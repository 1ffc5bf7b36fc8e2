package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi4spark/internal/faults"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// overhead renders how much longer run took than base, in percent of base.
func overhead(base, run vtime.Stamp) string {
	pct := 0.0
	if base > 0 {
		pct = 100 * float64(run-base) / float64(base)
	}
	return fmt.Sprintf("%.1f", pct)
}

// runChaosKill runs the chaos-kill recovery matrix — every backend, the
// external shuffle service off (map outputs die with the executor) then on
// (outputs survive on the per-worker services) — and renders the
// recovery-cost comparison. Per run, job 1 materializes a shuffle and sets
// the no-failure baseline, then an executor process is killed the moment
// its first reduce task of job 2 starts, and job 2's recovery is timed.
// dir, when non-empty, receives one JSONL log per run
// (chaos-<backend>-<off|on>.jsonl) for cmd/eventlog replay.
func runChaosKill(o Options, dir string) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Chaos kill: executor death mid-reduce, recovery cost (virtual time)",
		Columns: []string{"Backend", "Service", "Baseline", "Recovery", "Overhead%", "MapResubmits", "FetchFails"},
		Notes: []string{
			"service off: map outputs die with the executor -> FetchFailed + map-stage resubmission",
			"service on: outputs survive on per-worker services -> reduce-only retry, zero resubmissions",
		},
	}
	const workers = 3
	cfg := ohbConfig(o, workers, o.SlotsPerWorker, o.BytesPerWorker*workers)
	err := sweep(backends, dir, "chaos", []string{"off", "on"}, func(b spark.Backend, mode, eventLog string) error {
		var summed *spark.RDD[spark.Pair[int64, int64]]
		var baseline, recovery vtime.Stamp
		d, err := Cell{
			Spec: ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker,
				ShuffleService: mode == "on", EventLogPath: eventLog},
			Counters: []string{counterResubmits, "scheduler.fetch_failed"},
			Setup: func(cl *Cluster) error {
				pairs := spark.Generate(cl.Ctx, cfg.Mappers, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
					out := make([]spark.Pair[int64, int64], cfg.PairsPerMapper)
					for i := range out {
						out[i] = spark.Pair[int64, int64]{K: int64(i % 64), V: int64(part + 1)}
					}
					tc.ChargeRecords(len(out), (cfg.ValueBytes+8)*len(out))
					return out
				})
				summed = spark.ReduceByKey(pairs, int64Conf(cfg.Mappers), func(a, b int64) int64 { return a + b })
				start := cl.Ctx.Clock()
				if _, err := spark.Collect(summed); err != nil {
					return fmt.Errorf("baseline job: %w", err)
				}
				baseline = cl.Ctx.Clock() - start

				// Arm the kill: the first reduce task of the next job to
				// start on the victim takes its executor process down
				// synchronously.
				victim := cl.Ctx.Executors()[1]
				var mu sync.Mutex
				kinds := map[int]string{}
				var killOnce sync.Once
				cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
					switch e.Type {
					case obs.EvStageSubmitted:
						mu.Lock()
						kinds[e.Stage] = e.StageKind
						mu.Unlock()
					case obs.EvTaskStart:
						mu.Lock()
						kind := kinds[e.Stage]
						mu.Unlock()
						if kind == "ResultStage" && e.Executor == victim.ID() {
							killOnce.Do(victim.Kill)
						}
					}
				}))
				return nil
			},
			Job: func(cl *Cluster) error {
				start := cl.Ctx.Clock()
				if _, err := spark.Collect(summed); err != nil {
					return fmt.Errorf("recovery job: %w", err)
				}
				recovery = cl.Ctx.Clock() - start
				return nil
			},
		}.Run()
		if err != nil {
			return err
		}
		t.AddRow(b, mode, baseline, recovery, overhead(baseline, recovery), d[counterResubmits], d["scheduler.fetch_failed"])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// runSkew runs the skewed GroupBy — the OHB GroupBy pattern with half the
// shuffle volume on a single hot key — on every backend with adaptive
// execution off then on, verifies every run produced the identical
// order-insensitive group checksum (or the adaptive rewrite changed the
// job's answer), and renders the reduce-stage comparison. The external
// shuffle service is on, so split sub-tasks exercise the ranged merged-run
// path. Speculation stays off in both modes: it is a separate mechanism
// (proven by its own tests), and speculative attempts on the uniform early
// stages would perturb the slot clocks and muddy the adaptive comparison.
// The cluster shape is pinned (4 workers x 4 slots) like the chaos
// experiment, so the hot partition can fan out across 16 map-range
// sub-tasks. The CPU model is the unscaled default (one slot = one core)
// rather than the core-consolidation-scaled profile: skew splitting
// targets workloads whose hot partition is bound by reduce-side compute (a
// UDF-heavy aggregation), and the consolidation factor would shrink
// per-record compute ~14x, leaving every backend bound by shuffle fetch —
// a regime where no reduce-side re-partitioning can help, since the same
// bytes cross the same wires either way. dir, when non-empty, receives one
// JSONL log per run (skew-<backend>-<off|on>.jsonl) for cmd/eventlog
// replay (split sub-tasks and per-stage skew show up in its timeline).
func runSkew(o Options, dir string) (*metrics.Table, error) {
	const workers, slots = 4, 4
	cfg := ohb.SkewConfig{Config: ohbConfig(o, workers, slots, o.BytesPerWorker*workers), HotKeyFraction: 0.5, ZipfS: 1.2}
	t := &metrics.Table{
		Title:   fmt.Sprintf("Skewed GroupBy (hot key = %.0f%% of data): adaptive execution off vs on", 100*cfg.HotKeyFraction),
		Columns: []string{"Backend", "Adaptive", "ReduceStage", "E2E", "Splits", "Coalesces", "SpecLaunched", "ReduceSpeedup"},
		Notes: []string{
			"identical group checksums across all runs (bit-identical results)",
			"speedup = reduce-stage duration off / on, per backend",
		},
	}
	var first *ohb.Result
	var off vtime.Stamp // this backend's reduce stage with adaptive execution off
	err := sweep(backends, dir, "skew", []string{"off", "on"}, func(b spark.Backend, mode, eventLog string) error {
		var res *ohb.Result
		d, err := Cell{
			Spec: ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: slots,
				CPU: spark.DefaultCPUModel(), ShuffleService: true, EventLogPath: eventLog, Adaptive: mode == "on"},
			Counters: []string{spark.CounterAdaptiveSplits, spark.CounterAdaptiveCoalesces, spark.CounterSpecLaunched},
			Job: func(cl *Cluster) (err error) {
				res, err = ohb.RunSkewedGroupBy(cl.Ctx, cfg)
				return err
			},
		}.Run()
		if err != nil {
			return err
		}
		if first == nil {
			first = res
		} else if res.Output != first.Output {
			return fmt.Errorf("checksum diverged: got %x, want %x", res.Output, first.Output)
		}
		speedup := ""
		if mode == "off" {
			off = res.ShuffleReadTime()
		} else {
			speedup = fmt.Sprintf("%.2fx", metrics.Speedup(off, res.ShuffleReadTime()))
		}
		t.AddRow(b, mode, res.ShuffleReadTime(), res.Total, d[spark.CounterAdaptiveSplits],
			d[spark.CounterAdaptiveCoalesces], d[spark.CounterSpecLaunched], speedup)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// NetChaosRow is one network-chaos measurement: the OHB GroupByTest run
// clean, then re-run on a fresh cluster under a seeded deterministic fault
// schedule. Two schedules run per backend: "paper" is the reference
// mix (1% drop, 0.1% corruption, duplicate delivery, one mid-reduce
// partition-and-heal) and "stress" raises the corruption and duplication
// rates (5% / 3%) so every backend demonstrably lands corrupt frames. In
// both, the row reconciles the fault plane's injection counters against
// the integrity pipeline: every corrupted payload must be caught exactly
// once — at service ingest or at reduce fetch — and the faulty run's
// output must be bit-identical to the clean run's. Note the corruption
// population is cross-node block serves only: pushes go to the node-local
// service and never cross a link, so at 0.1% the paper schedule often
// draws zero corruptions — the invariant "injected == detected" is
// enforced either way, and the stress schedule supplies the non-trivial
// witnesses.
type NetChaosRow struct {
	Backend   spark.Backend
	Schedule  string // "paper" or "stress"
	CleanTime vtime.Stamp
	FaultTime vtime.Stamp
	// Injection counts from the fault plane.
	Drops    int64
	Dups     int64
	Corrupts int64
	// Detected is the shuffle.integrity.corrupt_detected delta; Events is
	// the number of BlockCorrupt observability events seen on the bus.
	// Both must equal Corrupts.
	Detected int64
	Events   int64
	// Refetches counts verification-triggered refetches (per-block
	// fallback from a poisoned merged run, or corrupt-block retries).
	Refetches int64
	// Checked is the number of CRC32C verifications performed.
	Checked int64
}

// netChaosPlan builds one seeded fault schedule. The partition window is
// anchored a quarter into the clean run's shuffle-read stage and kept
// shorter than the fetch retry policy's total exponential backoff
// (200+400+800 µs), so reducers that lose a fetch to the partition are
// still retrying when it heals.
func netChaosPlan(seed int64, stress bool, reduce spark.StageTiming) faults.Plan {
	rule := faults.LinkRule{
		From:            "w*",
		To:              "w*",
		DropRate:        0.01,
		RetransmitDelay: 300 * time.Microsecond,
		DupRate:         0.01,
		CorruptRate:     0.001,
		JitterMax:       20 * time.Microsecond,
	}
	if stress {
		rule.DupRate = 0.03
		rule.CorruptRate = 0.05
	}
	partAt := reduce.Start + reduce.Duration()/4
	return faults.Plan{
		Seed:  uint64(seed),
		Rules: []faults.LinkRule{rule},
		Partitions: []faults.Partition{{
			A:      []string{"w1"},
			B:      []string{"w2"},
			Window: faults.Window{Start: partAt, End: partAt.Add(600 * time.Microsecond)},
		}},
	}
}

// runNetChaos measures each backend of bs: a clean GroupByTest run, then
// the same job on fresh clusters under the paper and stress schedules, and
// renders the injection/detection reconciliation. Each faulty run must be
// bit-identical to the clean run and fully reconciled (injected ==
// detected == BlockCorrupt events); the table is the evidence trail. A
// stress run must also detect something: a schedule which lands corrupt
// frames is never silently clean. The external shuffle service is on, so
// corruption lands on merged-run serves and the degradation chain
// (refetch, merged run → per-block fallback) does the repair. When dir is
// non-empty each faulty run's lifecycle events are recorded there
// (netchaos-<backend>-<schedule>.jsonl).
func runNetChaos(o Options, bs []spark.Backend, dir string) ([]NetChaosRow, *metrics.Table, error) {
	// Pinned shape: 4 workers x 4 slots, 32 shuffle partitions — a wide
	// fan-out (1024 blocks pushed and fetched per run) so the fault rates
	// have a realistic population to draw from.
	const workers, slots, parts = 4, 4, 32
	cfg := ohbConfig(o, 1, parts, o.BytesPerWorker*int64(workers))
	t := &metrics.Table{
		Title:   "Network chaos: seeded drop/dup/corrupt/partition, integrity reconciliation",
		Columns: []string{"Backend", "Schedule", "Clean", "Faulty", "Overhead%", "Drops", "Dups", "Corrupt(inj)", "Detected", "Events", "Refetches", "Checked"},
		Notes: []string{
			"paper: 1% drop (300us retransmit), 1% dup, 0.1% corrupt, 20us jitter, one 600us w1|w2 partition mid-reduce",
			"stress: same, with 3% dup and 5% corrupt (non-trivial detection witnesses on every backend)",
			"every row: faulty output bit-identical to clean; injected == detected == BlockCorrupt events",
		},
	}
	var rows []NetChaosRow
	var clean *ohb.Result // the backend's clean run, made before its first schedule
	err := sweep(bs, dir, "netchaos", []string{"paper", "stress"}, func(b spark.Backend, schedule, eventLog string) error {
		spec := ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: slots, ShuffleService: true}
		if schedule == "paper" {
			// A fresh cluster's virtual clock starts at zero, so the clean
			// run's shuffle-read stage stamps anchor the faulted runs'
			// partition window.
			if _, err := (Cell{Spec: spec, Job: func(cl *Cluster) (err error) {
				clean, err = ohb.RunGroupByTest(cl.Ctx, cfg)
				return err
			}}).Run(); err != nil {
				return fmt.Errorf("clean run: %w", err)
			}
		}
		plan := netChaosPlan(o.Seed, schedule == "stress", clean.ShuffleReadStage())
		spec.Faults, spec.EventLogPath = &plan, eventLog
		row := NetChaosRow{Backend: b, Schedule: schedule, CleanTime: clean.Total}
		var corruptEvents atomic.Int64
		d, err := Cell{
			Spec:     spec,
			Counters: []string{shuffle.CounterCorruptDetected, shuffle.CounterIntegrityRefetches, shuffle.CounterIntegrityChecked},
			Job: func(cl *Cluster) error {
				cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
					if e.Type == obs.EvBlockCorrupt {
						corruptEvents.Add(1)
					}
				}))
				res, err := ohb.RunGroupByTest(cl.Ctx, cfg)
				if err != nil {
					return fmt.Errorf("faulty run: %w", err)
				}
				if res.Output != clean.Output {
					return fmt.Errorf("output diverged under faults: clean %d, faulty %d", clean.Output, res.Output)
				}
				row.FaultTime = res.Total
				plane, ok := cl.Fabric.FaultPlane().(*faults.Plane)
				if !ok {
					return fmt.Errorf("fault plane not installed")
				}
				c := plane.Counters()
				row.Drops, row.Dups, row.Corrupts = c.Drops, c.Dups, c.Corrupts
				return nil
			},
		}.Run()
		if err != nil {
			return err
		}
		row.Detected = d[shuffle.CounterCorruptDetected]
		row.Refetches = d[shuffle.CounterIntegrityRefetches]
		row.Checked = d[shuffle.CounterIntegrityChecked]
		row.Events = corruptEvents.Load()
		switch {
		case row.Detected != row.Corrupts:
			return fmt.Errorf("%d corruptions injected but %d detected", row.Corrupts, row.Detected)
		case row.Events != row.Detected:
			return fmt.Errorf("%d detections but %d BlockCorrupt events", row.Detected, row.Events)
		case schedule == "stress" && row.Detected == 0:
			return fmt.Errorf("no corruptions detected — seam dead?")
		}
		rows = append(rows, row)
		t.AddRow(b, schedule, row.CleanTime, row.FaultTime, overhead(row.CleanTime, row.FaultTime),
			row.Drops, row.Dups, row.Corrupts, row.Detected, row.Events, row.Refetches, row.Checked)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, t, nil
}
