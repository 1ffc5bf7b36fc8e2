package main

import (
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/streaming"
)

// metricDef declares one metric; BENCHMARK.json lists the same (a test
// holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the worsening that counts as a regression
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload. README.md gives each one's definition per workload.
// The bounds are three times the widest spread (interquartile distance over
// median of ten runs on ten seeds) seen on any workload on the 2-core host;
// README.md has the table. Host time drifts by tens of percent over an hour
// there, so wall_ms and setup_s can only carry the widest bound allowed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.03},
	{"allocs_k", "k", "lower", 0.06},
	{"vt_ms", "ms", "lower", 0.10},
	{"vt_read_ms", "ms", "lower", 0.20},
	{"vt_speedup_vs_ipoib", "x", "higher", 0.18},
	{"vt_speedup_vs_rdma", "x", "higher", 0.18},
}

// paperReference is the paper's value for a speed-up, recorded beside the
// measured one where the workload has the paper's shape.
var paperReference = map[string]map[string]float64{
	"groupby-bulk": {"vt_speedup_vs_ipoib": 4.23, "vt_speedup_vs_rdma": 2.04},
	"pingpong":     {"vt_speedup_vs_ipoib": 9},
}

// perLayer are the single-layer metrics, named <layer>.<name> after the
// package under internal/ (driver: the benchmark's own loop).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, leg := range legNames {
		add("lower", "ms", "transport."+leg+".wall_ms")
		add("lower", "MB", "transport."+leg+".alloc_mb")
		add("lower", "ms", "transport."+leg+".vt_ms")
	}
	add("lower", "ms", "harness.build_ms", "harness.close_ms")
	add("lower", "ns", "bytebuf.getrelease_ns")
	add("higher", "ratio", "bytebuf.pool_hit_ratio")
	add("higher", "count", "bytebuf.pool_gets")
	add("lower", "ns", "vtime.occupy_ns")
	add("lower", "count", "vtime.vt_distinct")
	add("lower", "%", "vtime.vt_spread_pct")
	add("lower", "ns", "fabric.transfer_ns", "fabric.conn_sendrecv_ns.small", "fabric.conn_sendrecv_ns.large")
	add("lower", "x", "fabric.conn_alloc_x.large")
	add("lower", "ns", "netty.roundtrip_ns.small", "netty.roundtrip_ns.large")
	add("lower", "x", "netty.roundtrip_alloc_x.large")
	add("lower", "ns", "mpi.p2p_ns.eager", "mpi.p2p_ns.rndv", "mpi.p2p_vt_ns.eager", "mpi.p2p_vt_ns.rndv")
	add("lower", "x", "mpi.p2p_alloc_x.rndv")
	add("lower", "ns", "ucr.fetch_ns.large", "ucr.fetch_vt_ns.large")
	add("lower", "x", "ucr.fetch_alloc_x.large")
	for _, t := range []string{"nio", "mpi", "mpi-opt"} {
		add("lower", "us", "rpc.ask_us."+t+".64b", "rpc.ask_us."+t+".64b_p99",
			"rpc.ask_us."+t+".64k", "rpc.ask_us."+t+".4m")
		add("lower", "x", "rpc.ask_alloc_x."+t+".4m")
	}
	add("lower", "ns", "rpc.fetchbatch_ns.large")
	add("lower", "x", "rpc.fetchbatch_alloc_x.large")
	for _, leg := range legNames {
		add("lower", "ns", "shuffle.fetchparts_ns."+leg)
		add("lower", "x", "shuffle.fetchparts_alloc_x."+leg)
	}
	add("lower", "ns", "shuffle.write_ns")
	add("lower", "count", "shuffle.fetch_requests", "shuffle.fetch_chunks")
	add("lower", "bytes", "shuffle.bytes_remote", "shuffle.bytes_local")
	add("lower", "count", "shuffle.fetch_retries", "shuffle.integrity_checked",
		"shuffle.integrity_refetches", "shuffle.merged_runs")
	add("lower", "MB", "shuffleservice.pushed_mb", "shuffleservice.served_mb", "shuffleservice.merged_mb")
	add("lower", "count", "faults.injected")
	add("higher", "ratio", "faults.detected_ratio")
	add("lower", "us", "spark.task_dispatch_us", "spark.tracker_serialize_us")
	add("lower", "ns/MiB", "spark.encode_ns_per_mib")
	add("lower", "count", "spark.tasks")
	add("lower", "ms", "spark.stage_map_vt_ms", "spark.stage_reduce_vt_ms")
	add("lower", "ratio", "spark.fetch_wait_vt_share", "spark.task_skew")
	add("lower", "ms", "spark.stage_map_wall_ms", "spark.stage_reduce_wall_ms")
	add("lower", "ms", "streaming.batch_wall_ms", "streaming.batch_vt_p50_ms", "streaming.sched_delay_vt_ms")
	add("higher", "count", "streaming.events_ingested")
	add("lower", "count", "streaming.backlog_events", "streaming.bp_limited_intervals")
	add("lower", "ns", "obs.emit_ns")
	add("lower", "count", "obs.events")
	add("lower", "%", "obs.trace_overhead_pct")
	add("lower", "ms", "driver.wall_ms_p50", "driver.wall_ms_p90")
	add("lower", "MB", "driver.host_sys_mb")
	add("lower", "count", "driver.gc_cycles")
	return defs
}

// vtLeg is the leg whose modelled time is the workload's vt_ms:
// MPI-Optimized, except that pingpong follows Fig. 8 (and harness.RunFig8)
// in reporting the Basic design's Netty+MPI transport.
func vtLeg(workload string) int {
	if workload == "pingpong" {
		return legBasic
	}
	return legOpt
}

// clean returns the ops whose every leg succeeded, or all of them when
// none did (so that a wholly failed run still prints numbers beside its
// failure count).
func clean(cycles []cycleSample) []cycleSample {
	var ok []cycleSample
	for _, c := range cycles {
		if !c.anyFailed() {
			ok = append(ok, c)
		}
	}
	if len(ok) == 0 {
		return cycles
	}
	return ok
}

// perOp maps every op to one number.
func perOp(cycles []cycleSample, f func(c *cycleSample) float64) []float64 {
	out := make([]float64, len(cycles))
	for i := range cycles {
		out[i] = f(&cycles[i])
	}
	return out
}

func opWallMs(c *cycleSample) float64 {
	var ns int64
	for _, l := range c.legs {
		ns += l.wallNs
	}
	return float64(ns) / 1e6
}

// quietWall is the statistic host times are reported by: the 10th
// percentile of the per-op samples, the cost of an op while the other
// tenants of the host are quiet. The host slows down in bursts that last
// from a few ops to a few runs (goroutine hand-offs take up to 40 % longer,
// a spinning loop takes the same), and they move a run's median twice as far
// as its low percentiles: over 30 runs of groupby-small the medians spread
// by 12.5 % and the 10th percentiles by 6 %; one set of ten had three slow
// runs in a row and a spread of 29 %, past the widest bound there is.
func quietWall(xs []float64) float64 { return quantile(sorted(xs), 0.10) }

func legVTMs(leg int) func(c *cycleSample) float64 {
	return func(c *cycleSample) float64 { return float64(c.legs[leg].vt) / 1e6 }
}

// endToEndSamples returns the per-op samples behind each end-to-end metric
// that is taken over ops (wall_ms by quietWall, the others as medians); the
// two speed-ups are ratios of medians and setup_s comes from the set-up
// repeats.
func endToEndSamples(workload string, cycles []cycleSample) map[string][]float64 {
	cycles = clean(cycles)
	leg := vtLeg(workload)
	return map[string][]float64{
		"wall_ms": perOp(cycles, opWallMs),
		"alloc_mb": perOp(cycles, func(c *cycleSample) float64 {
			var b uint64
			for _, l := range c.legs {
				b += l.allocB
			}
			return float64(b) / 1e6
		}),
		"allocs_k": perOp(cycles, func(c *cycleSample) float64 {
			var n uint64
			for _, l := range c.legs {
				n += l.mallocs
			}
			return float64(n) / 1e3
		}),
		"vt_ms":      perOp(cycles, legVTMs(leg)),
		"vt_read_ms": perOp(cycles, func(c *cycleSample) float64 { return float64(c.legs[leg].vtRead) / 1e6 }),
	}
}

// endToEndValues computes every end-to-end metric of a measurement.
func endToEndValues(m *measurement) values {
	cycles := clean(m.timed)
	out := values{"setup_s": median(m.setups)}
	for name, xs := range endToEndSamples(m.info.Name, m.timed) {
		out[name] = median(xs)
		if name == "wall_ms" {
			out[name] = quietWall(xs)
		}
	}
	mine := median(perOp(cycles, legVTMs(vtLeg(m.info.Name))))
	out["vt_speedup_vs_ipoib"] = median(perOp(cycles, legVTMs(legNIO))) / mine
	out["vt_speedup_vs_rdma"] = median(perOp(cycles, legVTMs(legUCR))) / mine
	return out
}

// perLayerValues computes every per-layer metric: from the driver's own
// samples of the timed pass (a), from what the traced pass collected
// outside the program (b), and from the layer probes (c). A metric that
// does not apply to the workload (streaming.* on a batch job) is 0.
func perLayerValues(m *measurement) values {
	out := values{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range m.probes {
		out[k] = v
	}

	// (a) driver samples of the timed pass.
	timed := clean(m.timed)
	var builds, closes []float64
	worstSpread := 0.0
	for leg, name := range legNames {
		leg := leg
		out["transport."+name+".wall_ms"] = quietWall(perOp(timed, func(c *cycleSample) float64 { return float64(c.legs[leg].wallNs) / 1e6 }))
		out["transport."+name+".alloc_mb"] = median(perOp(timed, func(c *cycleSample) float64 { return float64(c.legs[leg].allocB) / 1e6 }))
		vts := perOp(timed, legVTMs(leg))
		out["transport."+name+".vt_ms"] = median(vts)
		if s := rangePct(vts); s > worstSpread {
			worstSpread = s
		}
		for _, c := range timed {
			if c.legs[leg].buildNs > 0 {
				builds = append(builds, float64(c.legs[leg].buildNs)/1e6)
				closes = append(closes, float64(c.legs[leg].closeNs)/1e6)
			}
		}
	}
	if len(builds) > 0 {
		out["harness.build_ms"], out["harness.close_ms"] = median(builds), median(closes)
	}
	out["vtime.vt_distinct"] = float64(distinct(perOp(timed, legVTMs(vtLeg(m.info.Name)))))
	out["vtime.vt_spread_pct"] = worstSpread
	walls := perOp(timed, opWallMs)
	out["driver.wall_ms_p50"] = median(walls)
	out["driver.wall_ms_p90"] = nearestRank(sorted(walls), 90)
	out["driver.host_sys_mb"] = float64(m.sysBytes) / 1e6
	out["driver.gc_cycles"] = float64(m.gcCycles)

	// (b) the traced pass.
	if traced := clean(m.traced); len(traced) > 0 {
		out["obs.trace_overhead_pct"] = 100 * (median(perOp(traced, opWallMs))/median(walls) - 1)
	}
	tracedLayerValues(m, out)
	return out
}

// tracedLayerValues fills in the metrics that come from bus events,
// counter deltas, pool statistics and fault-plane counters. Counts are per
// job on the workload's vt leg (median over the traced ops) unless they
// say otherwise.
func tracedLayerValues(m *measurement, out values) {
	if m.tp == nil || len(m.tp.legs) == 0 {
		return
	}
	leg := vtLeg(m.info.Name)
	counter := func(name string) float64 {
		xs := make([]float64, len(m.tp.legs))
		for i, lts := range m.tp.legs {
			xs[i] = float64(lts[leg].counters[name])
		}
		return median(xs)
	}
	out["shuffle.fetch_requests"] = counter("shuffle.fetch.requests")
	out["shuffle.fetch_chunks"] = counter("shuffle.fetch.chunks")
	out["shuffle.bytes_remote"] = counter("shuffle.fetch.bytes_remote")
	out["shuffle.bytes_local"] = counter("shuffle.fetch.bytes_local")
	out["shuffle.fetch_retries"] = counter("shuffle.fetch.retries")
	out["shuffle.integrity_checked"] = counter(shuffle.CounterIntegrityChecked)
	out["shuffle.integrity_refetches"] = counter(shuffle.CounterIntegrityRefetches)
	out["shuffle.merged_runs"] = counter("shuffle.fetch.merged_runs")
	out["shuffleservice.pushed_mb"] = counter(shuffleservice.CounterPushedBytes) / 1e6
	out["shuffleservice.served_mb"] = counter(shuffleservice.CounterServedBytes) / 1e6
	out["shuffleservice.merged_mb"] = counter(shuffleservice.CounterMergedBytes) / 1e6
	out["streaming.events_ingested"] = counter(streaming.CounterEventsIngested)
	out["streaming.bp_limited_intervals"] = counter(streaming.CounterBackpressureLimits)

	// Over all four legs: pool traffic and injected faults per op, events
	// per op, and the pass-wide ratios.
	var gets, hits, injectedCorrupt, detected float64
	poolGets := make([]float64, len(m.tp.legs))
	injected := make([]float64, len(m.tp.legs))
	events := make([]float64, len(m.tp.legs))
	for i, lts := range m.tp.legs {
		for _, lt := range lts {
			poolGets[i] += float64(lt.poolGets)
			gets += float64(lt.poolGets)
			hits += float64(lt.poolHits)
			f := lt.faults
			injected[i] += float64(f.Drops + f.Dups + f.Corrupts + f.Delays)
			injectedCorrupt += float64(f.Corrupts)
			detected += float64(lt.counters[shuffle.CounterCorruptDetected])
			events[i] += float64(len(lt.events))
		}
	}
	out["bytebuf.pool_gets"] = median(poolGets)
	if gets > 0 {
		out["bytebuf.pool_hit_ratio"] = hits / gets
	}
	out["faults.injected"] = median(injected)
	out["faults.detected_ratio"] = 1 // nothing injected, nothing missed
	if injectedCorrupt > 0 {
		out["faults.detected_ratio"] = detected / injectedCorrupt
	}
	out["obs.events"] = median(events)

	var perJob []jobEvents
	for _, lts := range m.tp.legs {
		if ev := lts[leg].events; len(ev) > 0 {
			perJob = append(perJob, summarizeEvents(ev))
		}
	}
	if len(perJob) > 0 {
		field := func(f func(j *jobEvents) float64) float64 {
			xs := make([]float64, len(perJob))
			for i := range perJob {
				xs[i] = f(&perJob[i])
			}
			return median(xs)
		}
		out["spark.tasks"] = field(func(j *jobEvents) float64 { return float64(j.tasks) })
		out["spark.stage_map_vt_ms"] = field(func(j *jobEvents) float64 { return j.mapVT / 1e6 })
		out["spark.stage_reduce_vt_ms"] = field(func(j *jobEvents) float64 { return j.reduceVT / 1e6 })
		out["spark.stage_map_wall_ms"] = field(func(j *jobEvents) float64 { return j.mapWall / 1e6 })
		out["spark.stage_reduce_wall_ms"] = field(func(j *jobEvents) float64 { return j.reduceWall / 1e6 })
		out["spark.fetch_wait_vt_share"] = field(func(j *jobEvents) float64 { return j.fetchWaitShare })
		out["spark.task_skew"] = field(func(j *jobEvents) float64 { return j.taskSkew })
		out["streaming.batch_wall_ms"] = field(func(j *jobEvents) float64 { return j.batchWall / 1e6 })
	}

	var p50, delay, backlog []float64
	for _, c := range clean(m.traced) {
		if ss := c.legs[leg].stream; ss != nil {
			p50 = append(p50, float64(c.legs[leg].vtRead)/1e6)
			delay = append(delay, float64(ss.schedDelay)/1e6)
			backlog = append(backlog, float64(ss.backlog))
		}
	}
	if len(p50) > 0 {
		out["streaming.batch_vt_p50_ms"] = median(p50)
		out["streaming.sched_delay_vt_ms"] = median(delay)
		out["streaming.backlog_events"] = median(backlog)
	}
}

// jobEvents summarizes one job's bus events (times in ns). The map stages
// are the ShuffleMapStages; the reduce stages are the ResultStages of jobs
// that also ran a map stage, i.e. the ones that read a shuffle.
type jobEvents struct {
	tasks               int
	mapVT, reduceVT     float64
	mapWall, reduceWall float64
	fetchWaitShare      float64 // sum of FetchWait / sum of task VT, reduce stages
	taskSkew            float64 // max / median task VT, reduce stages
	batchWall           float64 // mean host time per micro-batch (every other one runs no job)
}

func summarizeEvents(events []obs.Event) jobEvents {
	var j jobEvents
	shuffleJobs := map[int]bool{}
	for _, e := range events {
		if e.Type == obs.EvStageSubmitted && e.StageKind == "ShuffleMapStage" {
			shuffleJobs[e.Job] = true
		}
	}
	submitted := map[stageKey]obs.Event{}
	reduceStage := map[stageKey]bool{}
	batchStart := map[int]obs.Event{}
	var taskVT []float64
	var batchWall float64
	batches := 0
	var fetchWait, reduceTaskVT float64
	for _, e := range events {
		k := stageKey{e.Job, e.Stage}
		switch e.Type {
		case obs.EvStageSubmitted:
			submitted[k] = e
			reduceStage[k] = e.StageKind == "ResultStage" && shuffleJobs[e.Job]
		case obs.EvStageCompleted:
			s, ok := submitted[k]
			if !ok {
				continue
			}
			vt, wall := float64(e.VT-s.VT), float64(e.Wall.Sub(s.Wall).Nanoseconds())
			switch {
			case e.StageKind == "ShuffleMapStage":
				j.mapVT, j.mapWall = j.mapVT+vt, j.mapWall+wall
			case reduceStage[k]:
				j.reduceVT, j.reduceWall = j.reduceVT+vt, j.reduceWall+wall
			}
		case obs.EvTaskEnd:
			j.tasks++
			if reduceStage[k] {
				d := float64(e.VT - e.Start)
				taskVT = append(taskVT, d)
				reduceTaskVT += d
				fetchWait += float64(e.FetchWait)
			}
		case obs.EvBatchSubmitted:
			batchStart[e.Batch] = e
		case obs.EvBatchCompleted:
			if s, ok := batchStart[e.Batch]; ok {
				batchWall += float64(e.Wall.Sub(s.Wall).Nanoseconds())
				batches++
			}
		}
	}
	if reduceTaskVT > 0 {
		j.fetchWaitShare = fetchWait / reduceTaskVT
	}
	if len(taskVT) > 0 {
		s := sorted(taskVT)
		if mid := quantile(s, 0.5); mid > 0 {
			j.taskSkew = s[len(s)-1] / mid
		}
	}
	if batches > 0 {
		j.batchWall = batchWall / float64(batches)
	}
	return j
}
