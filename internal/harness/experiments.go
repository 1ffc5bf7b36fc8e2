package harness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/faults"
	"mpi4spark/internal/hibench"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/vtime"
)

// Options scales the experiments. Zero values select laptop-friendly
// defaults; cmd/experiments exposes them as flags.
type Options struct {
	// Workers is the base worker count for Fig 9/12 and the headline run.
	Workers int
	// WorkerCounts is the scaling sweep for Figs 10 and 11.
	WorkerCounts []int
	// BytesPerWorker is the weak-scaling data volume per worker (the
	// paper's 14 GB/worker, scaled).
	BytesPerWorker int64
	// TotalBytes is the strong-scaling fixed volume (the paper's 224 GB,
	// scaled).
	TotalBytes int64
	// ValueBytes is the OHB record payload size.
	ValueBytes int
	// SlotsPerWorker overrides the system profile's scaled slot count.
	// Fewer slots with the same data volume means larger shuffle blocks,
	// which is the paper's operating regime.
	SlotsPerWorker int
	// Seed makes runs deterministic.
	Seed int64
}

func (o *Options) defaults() {
	if o.Workers < 1 {
		o.Workers = 4
	}
	if o.SlotsPerWorker < 1 {
		o.SlotsPerWorker = 2
	}
	if len(o.WorkerCounts) == 0 {
		o.WorkerCounts = []int{2, 4, 8}
	}
	if o.BytesPerWorker <= 0 {
		o.BytesPerWorker = 8 << 20
	}
	if o.TotalBytes <= 0 {
		o.TotalBytes = 32 << 20
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 100
	}
	if o.Seed == 0 {
		o.Seed = 2022
	}
}

// ohbConfig derives an OHB configuration from a data volume.
func ohbConfig(o Options, workers, slots int, totalBytes int64) ohb.Config {
	mappers := workers * slots
	pairBytes := int64(o.ValueBytes + 8)
	perMapper := int(totalBytes / int64(mappers) / pairBytes)
	if perMapper < 10 {
		perMapper = 10
	}
	return ohb.Config{
		Mappers:        mappers,
		Reducers:       mappers,
		PairsPerMapper: perMapper,
		ValueBytes:     o.ValueBytes,
		KeyRange:       int64(mappers*perMapper)/4 + 1,
		Seed:           o.Seed,
	}
}

// runOHB builds a fresh cluster for the spec and runs one OHB benchmark.
func runOHB(spec ClusterSpec, cfg ohb.Config, bench string) (*ohb.Result, error) {
	cl, err := BuildCluster(spec)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	switch bench {
	case "GroupBy":
		return ohb.RunGroupByTest(cl.Ctx, cfg)
	case "SortBy":
		return ohb.RunSortByTest(cl.Ctx, cfg)
	default:
		return nil, fmt.Errorf("harness: unknown OHB benchmark %q", bench)
	}
}

// runWeakPoint runs one OHB benchmark at one weak-scaling point:
// BytesPerWorker on each of `workers` workers. Figure 9 and the headline
// are made of these and RunOHB is a single one, so a single run and the
// figure that contains it are the same job.
func runWeakPoint(o Options, sys System, workers int, b spark.Backend, bench, eventLog string) (*ohb.Result, error) {
	cfg := ohbConfig(o, workers, o.SlotsPerWorker, o.BytesPerWorker*int64(workers))
	spec := ClusterSpec{System: sys, Workers: workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker, EventLogPath: eventLog}
	return runOHB(spec, cfg, bench)
}

// singleRunTitle heads the table of one run of one benchmark.
func singleRunTitle(suite, name string, o Options, sys System, b spark.Backend) string {
	return fmt.Sprintf("%s %s: %s, %d workers x %d slots, %s backend",
		suite, name, sys.Name, o.Workers, o.SlotsPerWorker, b)
}

// RunOHB runs GroupByTest or SortByTest once, on one system and backend at
// the weak-scaling point (o.Workers, o.BytesPerWorker), and renders the
// paper-style stage breakdown. eventLog, when non-empty, records the run's
// lifecycle events for cmd/eventlog.
func RunOHB(o Options, sys System, b spark.Backend, bench, eventLog string) (*ohb.Result, *metrics.Table, error) {
	o.defaults()
	res, err := runWeakPoint(o, sys, o.Workers, b, bench, eventLog)
	if err != nil {
		return nil, nil, err
	}
	t := &metrics.Table{
		Title:   singleRunTitle("OHB", res.Name, o, sys, b),
		Columns: []string{"Stage", "Duration", "Tasks", "Records", "ShuffleBytes"},
		Notes:   []string{fmt.Sprintf("action output: %d", res.Output)},
	}
	for _, s := range res.Stages {
		t.AddRow(s.Name, s.Duration(), s.Tasks, s.Records, s.ShuffleBytes)
	}
	t.AddRow("TOTAL", res.Total, "", "", "")
	return res, t, nil
}

// RunOSU runs the OSU-style latency sweep of one collective (Bcast or
// Allreduce, iters timed iterations per message size) on one system and
// backend; eventLog as in RunOHB.
func RunOSU(o Options, sys System, b spark.Backend, bench string, iters int, eventLog string) (*metrics.Table, error) {
	o.defaults()
	sweep := ohb.RunOSUBcast
	switch bench {
	case "Bcast":
	case "Allreduce":
		sweep = ohb.RunOSUAllreduce
	default:
		return nil, fmt.Errorf("harness: unknown OSU collective %q", bench)
	}
	cl, err := BuildCluster(ClusterSpec{System: sys, Workers: o.Workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker, EventLogPath: eventLog})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res, err := sweep(cl.Ctx, ohb.DefaultOSUSizes(), iters)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   singleRunTitle("OSU", res.Name, o, sys, b),
		Columns: []string{"Size", "Latency"},
	}
	for _, p := range res.Points {
		t.AddRow(p.Bytes, p.Latency)
	}
	return t, nil
}

// PingPongPoint is one Fig 8 measurement.
type PingPongPoint struct {
	Size    int
	NIO     time.Duration
	MPI     time.Duration
	Speedup float64
}

// RunFig8 measures Netty-level ping-pong latency (half round trip) for the
// NIO transport versus the MPI transport on the internal-cluster profile,
// reproducing Figure 8.
func RunFig8(sizes []int) ([]PingPongPoint, *metrics.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 64, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	}
	measure := func(useMPI bool) (map[int]time.Duration, error) {
		f := fabric.New(InternalCluster.NewModel())
		n0, n1 := f.AddNode("node0"), f.AddNode("node1")
		var envA, envB *rpc.Env
		if useMPI {
			w := mpi.NewWorld(f)
			comm := w.InitWorld([]*fabric.Node{n0, n1})
			idA := &core.Identity{Kind: core.KindParent, World: comm.Handle(0)}
			idB := &core.Identity{Kind: core.KindParent, World: comm.Handle(1)}
			var err error
			envA, _, err = core.NewMPIEnv("client", n0, "rpc", idA, core.DesignBasic, rpc.EnvConfig{})
			if err != nil {
				return nil, err
			}
			envB, _, err = core.NewMPIEnv("server", n1, "rpc", idB, core.DesignBasic, rpc.EnvConfig{})
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			envA, err = rpc.NewEnv("client", n0, "rpc", rpc.DefaultEnvConfig())
			if err != nil {
				return nil, err
			}
			envB, err = rpc.NewEnv("server", n1, "rpc", rpc.DefaultEnvConfig())
			if err != nil {
				return nil, err
			}
		}
		defer envA.Shutdown()
		defer envB.Shutdown()
		if err := envB.RegisterEndpoint("PingPong", func(c *rpc.Call) {
			c.Reply(c.Payload, c.VT)
		}); err != nil {
			return nil, err
		}
		out := make(map[int]time.Duration, len(sizes))
		// Warm the connection (establishment + handshake).
		_, vt, err := envA.Ask(envB.Addr(), "PingPong", []byte{1}, 0)
		if err != nil {
			return nil, err
		}
		for _, sz := range sizes {
			payload := make([]byte, sz)
			const iters = 4
			var total vtime.Stamp
			for i := 0; i < iters; i++ {
				_, vt2, err := envA.Ask(envB.Addr(), "PingPong", payload, vt)
				if err != nil {
					return nil, err
				}
				total += vt2 - vt
				vt = vt2
			}
			out[sz] = (total / (2 * iters)).AsDuration() // half round trip
		}
		return out, nil
	}

	nio, err := measure(false)
	if err != nil {
		return nil, nil, err
	}
	mpiRes, err := measure(true)
	if err != nil {
		return nil, nil, err
	}
	table := &metrics.Table{
		Title:   "Figure 8: Netty ping-pong latency (internal cluster, IB-EDR)",
		Columns: []string{"Size", "Netty (NIO)", "Netty+MPI", "Speedup"},
		Notes:   []string{"latency = half round trip; paper reports up to ~9x at 4MB"},
	}
	points := make([]PingPongPoint, 0, len(sizes))
	for _, sz := range sizes {
		p := PingPongPoint{
			Size:    sz,
			NIO:     nio[sz],
			MPI:     mpiRes[sz],
			Speedup: float64(nio[sz]) / float64(mpiRes[sz]),
		}
		points = append(points, p)
		table.AddRow(sizeLabel(sz), p.NIO, p.MPI, p.Speedup)
	}
	return points, table, nil
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// RunFig9 compares MPI4Spark-Basic against MPI4Spark-Optimized and Vanilla
// Spark on OHB GroupBy and SortBy at two scales, reproducing Figure 9.
func RunFig9(o Options) (*metrics.Table, error) {
	o.defaults()
	table := &metrics.Table{
		Title:   "Figure 9: MPI4Spark-Basic vs MPI4Spark-Optimized (Frontera profile)",
		Columns: []string{"Benchmark", "Workers", "Backend", "Total", "ShuffleRead"},
		Notes:   []string{"Basic's Iprobe polling starves compute; Optimized avoids it"},
	}
	backends := []spark.Backend{spark.BackendVanilla, spark.BackendMPIBasic, spark.BackendMPIOpt}
	for _, bench := range []string{"GroupBy", "SortBy"} {
		for _, workers := range []int{o.Workers / 2, o.Workers} {
			if workers < 1 {
				workers = 1
			}
			for _, b := range backends {
				res, err := runWeakPoint(o, Frontera, workers, b, bench, "")
				if err != nil {
					return nil, err
				}
				label := b.String()
				if b == spark.BackendMPIBasic {
					label = "MPI-Basic"
				}
				table.AddRow(bench, workers, label, res.Total, res.ShuffleReadTime())
			}
		}
	}
	return table, nil
}

// ScalingRow is one (workers, backend) result with the paper's breakdown.
type ScalingRow struct {
	Workers     int
	Backend     spark.Backend
	DataGen     vtime.Stamp
	ShuffleMap  vtime.Stamp
	ShuffleRead vtime.Stamp
	Total       vtime.Stamp
}

// runScaling executes one OHB benchmark across worker counts and backends.
func runScaling(o Options, bench string, totalBytesFor func(workers int) int64) ([]ScalingRow, error) {
	backends := []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIOpt}
	var rows []ScalingRow
	for _, workers := range o.WorkerCounts {
		cfg := ohbConfig(o, workers, o.SlotsPerWorker, totalBytesFor(workers))
		for _, b := range backends {
			res, err := runOHB(ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker}, cfg, bench)
			if err != nil {
				return nil, err
			}
			row := ScalingRow{
				Workers: workers,
				Backend: b,
				Total:   res.Total,
			}
			for _, s := range res.Stages {
				switch {
				case s.JobID == 0:
					row.DataGen += s.Duration()
				case s.Kind == "ShuffleMapStage":
					row.ShuffleMap += s.Duration()
				case s.Kind == "ResultStage" && s.ShuffleBytes > 0:
					row.ShuffleRead += s.Duration()
				default:
					// Sampling job (SortBy): fold into data generation.
					row.DataGen += s.Duration()
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func scalingTable(title string, rows []ScalingRow) *metrics.Table {
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"Workers", "Backend", "DataGen", "ShuffleWrite", "ShuffleRead", "Total"},
		Notes:   []string{"breakdown follows the paper: Job0-ResultStage / ShuffleMapStage / shuffle-read ResultStage"},
	}
	for _, r := range rows {
		t.AddRow(r.Workers, r.Backend.String(), r.DataGen, r.ShuffleMap, r.ShuffleRead, r.Total)
	}
	return t
}

// RunFig10 reproduces the weak-scaling breakdown (Figure 10): data grows
// with the worker count.
func RunFig10(o Options, bench string) ([]ScalingRow, *metrics.Table, error) {
	o.defaults()
	rows, err := runScaling(o, bench, func(workers int) int64 {
		return o.BytesPerWorker * int64(workers)
	})
	if err != nil {
		return nil, nil, err
	}
	title := fmt.Sprintf("Figure 10: weak scaling %sTest breakdown (Frontera profile)", bench)
	return rows, scalingTable(title, rows), nil
}

// RunFig11 reproduces the strong-scaling breakdown (Figure 11): fixed data
// volume across worker counts.
func RunFig11(o Options, bench string) ([]ScalingRow, *metrics.Table, error) {
	o.defaults()
	rows, err := runScaling(o, bench, func(int) int64 { return o.TotalBytes })
	if err != nil {
		return nil, nil, err
	}
	title := fmt.Sprintf("Figure 11: strong scaling %sTest breakdown (Frontera profile)", bench)
	return rows, scalingTable(title, rows), nil
}

// ScaleRow is one cell of the task-axis sweep: OHB GroupBy at one slot count
// on one backend. Readers is the number of executors that ran a task which
// read the shuffle; Asks, ReplyBytes, Timeouts and Resubmits are the run's
// deltas of shuffle.tracker.asks, shuffle.tracker.reply_bytes,
// shuffle.fetch.timeouts and scheduler.map_stage.resubmissions. Err is the
// job's failure, if it failed.
type ScaleRow struct {
	Slots       int
	Backend     spark.Backend
	Blocks      int
	Read, Total vtime.Stamp
	Asks        int64
	ReplyBytes  int64
	Timeouts    int64
	Resubmits   int64
	Readers     int
	Output      int64
	Err         error
}

// scaleWorkers is the task-axis sweep's worker count: the paper's 448 cores
// are 8 Frontera nodes of 56.
const scaleWorkers = 8

// runScaleCell runs GroupBy once at (scaleWorkers, slots, o.BytesPerWorker)
// on a fresh cluster and counts the executors that read the shuffle.
func runScaleCell(o Options, slots int, b spark.Backend) ScaleRow {
	cfg := ohbConfig(o, scaleWorkers, slots, o.BytesPerWorker*scaleWorkers)
	row := ScaleRow{Slots: slots, Backend: b, Blocks: cfg.Mappers * cfg.Reducers}
	cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: scaleWorkers, Backend: b, SlotsPerWorker: slots})
	if err != nil {
		row.Err = err
		return row
	}
	defer cl.Close()
	var mu sync.Mutex
	readers := map[string]bool{}
	cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
		if e.Type == obs.EvTaskEnd && e.BytesLocal+e.BytesRemote > 0 {
			mu.Lock()
			readers[e.Executor] = true
			mu.Unlock()
		}
	}))
	snap := metrics.Snapshot()
	res, err := ohb.RunGroupByTest(cl.Ctx, cfg)
	row.Asks = snap.DeltaValue("shuffle.tracker.asks")
	row.ReplyBytes = snap.DeltaValue("shuffle.tracker.reply_bytes")
	row.Timeouts = snap.DeltaValue("shuffle.fetch.timeouts")
	row.Resubmits = snap.DeltaValue("scheduler.map_stage.resubmissions")
	mu.Lock()
	row.Readers = len(readers)
	mu.Unlock()
	if err != nil {
		row.Err = err
		return row
	}
	row.Read, row.Total, row.Output = res.ShuffleReadTime(), res.Total, res.Output
	return row
}

// RunScale sweeps the task axis of ROADMAP item 2's grid: GroupBy on 8
// workers at o.BytesPerWorker, slots in {2, 14, 56} (256, 12.5 k and 200 k
// blocks), all four backends, one run per cell. A cell whose job fails
// prints its error and the sweep goes on. The table is always returned; the
// error reports every completed cell whose tracker Asks differ from the
// executors that read its one shuffle. A cell that recovered from fetch
// failures by resubmitting the map stage is exempt and footnoted: each
// resubmission invalidates every executor's statuses, one more Ask apiece.
func RunScale(o Options) ([]ScaleRow, *metrics.Table, error) {
	o.defaults()
	t := &metrics.Table{
		Title: fmt.Sprintf("Task axis: GroupBy, %d workers, %d MiB/worker (Frontera profile), one run per cell",
			scaleWorkers, o.BytesPerWorker>>20),
		Columns: []string{"Slots", "Blocks", "Backend", "Read", "Total", "TrackerAsks", "Tracker MB", "FetchTimeouts"},
	}
	var rows []ScaleRow
	var wrong []string
	for _, slots := range []int{2, 14, 56} {
		for _, b := range []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt} {
			r := runScaleCell(o, slots, b)
			rows = append(rows, r)
			read, total, asks := any(r.Read), any(r.Total), any(r.Asks)
			switch {
			case r.Err != nil:
				read, total = "failed ¹", "failed ¹"
				t.Notes = append(t.Notes, fmt.Sprintf("¹ %d slots, %s: %v", slots, b, r.Err))
			case r.Resubmits > 0:
				asks = fmt.Sprintf("%d ²", r.Asks)
				t.Notes = append(t.Notes, fmt.Sprintf("² %d slots, %s: fetch deadline hits failed a reduce task and the map stage was resubmitted (x%d); each resubmission costs every executor one more Ask",
					slots, b, r.Resubmits))
			case r.Asks != int64(r.Readers):
				wrong = append(wrong, fmt.Sprintf("%d slots %s: %d asks, %d executors read the shuffle", slots, b, r.Asks, r.Readers))
			}
			t.AddRow(slots, r.Blocks, b, read, total, asks, fmt.Sprintf("%.2f", float64(r.ReplyBytes)/1e6), r.Timeouts)
		}
	}
	if len(wrong) > 0 {
		return rows, t, fmt.Errorf("scale: tracker asks != executors: %s", strings.Join(wrong, "; "))
	}
	return rows, t, nil
}

// HiBenchRow is one Figure 12 measurement.
type HiBenchRow struct {
	Workload string
	Backend  spark.Backend
	Total    vtime.Stamp
}

// hibenchWorkloads returns the runnable workload set, scaled by workers.
func hibenchWorkloads(o Options, workers, slots int) map[string]func(*spark.Context) (*hibench.Result, error) {
	parts := workers * slots
	perPart := int(o.BytesPerWorker * int64(workers) / int64(parts) / 400)
	if perPart < 50 {
		perPart = 50
	}
	return map[string]func(*spark.Context) (*hibench.Result, error){
		"LDA": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunLDA(ctx, hibench.LDAConfig{
				Parts: parts, DocsPer: perPart / 10, Vocab: 2000, WordsPer: 40, K: 8, Iterations: 3, Seed: o.Seed,
			})
		},
		"SVM": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunSVM(ctx, hibench.MLConfig{
				Parts: parts, PerPart: perPart, Dim: 32, Iterations: 3, Seed: o.Seed,
			})
		},
		"LR": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunLogisticRegression(ctx, hibench.MLConfig{
				Parts: parts, PerPart: perPart, Dim: 32, Iterations: 3, Seed: o.Seed,
			})
		},
		"GMM": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunGMM(ctx, hibench.GMMConfig{
				Parts: parts, PerPart: perPart / 2, Dim: 16, K: 4, Iterations: 3, Seed: o.Seed,
			})
		},
		"Repartition": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunRepartition(ctx, hibench.RepartitionConfig{
				Parts: parts, RowsPer: perPart, ValueSize: 200, OutParts: parts, Seed: o.Seed,
			})
		},
		"TeraSort": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunTeraSort(ctx, hibench.TeraSortConfig{
				Parts: parts, RowsPer: perPart, Seed: o.Seed,
			})
		},
		"NWeight": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunNWeight(ctx, hibench.NWeightConfig{
				Parts: parts, Vertices: int64(parts * perPart / 8), Degree: 8, Hops: 2, Seed: o.Seed,
			})
		},
	}
}

// runHiBench runs one HiBench workload on a fresh cluster, sized by
// hibenchWorkloads at (o.Workers, o.BytesPerWorker). Figure 12 is made of
// these and RunHiBench is a single one.
func runHiBench(o Options, sys System, b spark.Backend, workload, eventLog string) (*hibench.Result, error) {
	runner, ok := hibenchWorkloads(o, o.Workers, o.SlotsPerWorker)[workload]
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", workload)
	}
	cl, err := BuildCluster(ClusterSpec{System: sys, Workers: o.Workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker, EventLogPath: eventLog})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return runner(cl.Ctx)
}

// RunHiBench runs one HiBench workload once, on one system and backend,
// and renders its stage table. eventLog, when non-empty, records the run's
// lifecycle events for cmd/eventlog.
func RunHiBench(o Options, sys System, b spark.Backend, workload, eventLog string) (*metrics.Table, error) {
	o.defaults()
	res, err := runHiBench(o, sys, b, workload, eventLog)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   singleRunTitle("HiBench", res.Name, o, sys, b),
		Columns: []string{"Stage", "Duration", "ShuffleBytes"},
		Notes:   []string{fmt.Sprintf("workload metric: %g", res.Metric)},
	}
	for _, s := range res.Stages {
		t.AddRow(s.Name, s.Duration(), s.ShuffleBytes)
	}
	t.AddRow("TOTAL", res.Total, "")
	return t, nil
}

// RunFig12 reproduces the HiBench comparison for one system profile:
// Figure 12(a,b) on Frontera (with RDMA-Spark), Figure 12(c) on Stampede2
// (no RDMA baseline there).
func RunFig12(o Options, sys System, workloads []string) ([]HiBenchRow, *metrics.Table, error) {
	o.defaults()
	backends := []spark.Backend{spark.BackendVanilla}
	if sys.SupportsRDMA {
		backends = append(backends, spark.BackendRDMA)
	}
	backends = append(backends, spark.BackendMPIOpt)

	table := &metrics.Table{
		Title:   fmt.Sprintf("Figure 12: Intel HiBench on %s profile (%d workers)", sys.Name, o.Workers),
		Columns: []string{"Workload", "Backend", "Total"},
	}
	var rows []HiBenchRow
	for _, wl := range workloads {
		for _, b := range backends {
			res, err := runHiBench(o, sys, b, wl, "")
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, HiBenchRow{Workload: wl, Backend: b, Total: res.Total})
			table.AddRow(wl, b.String(), res.Total)
		}
	}
	return rows, table, nil
}

// HeadlineResult is the §VII-E summary: end-to-end and shuffle-read
// speedups of MPI4Spark over Vanilla and RDMA-Spark for GroupByTest.
type HeadlineResult struct {
	Workers                   int
	TotalVanilla              vtime.Stamp
	TotalRDMA                 vtime.Stamp
	TotalMPI                  vtime.Stamp
	ReadVanilla               vtime.Stamp
	ReadRDMA                  vtime.Stamp
	ReadMPI                   vtime.Stamp
	E2EVsVanilla, E2EVsRDMA   float64
	ReadVsVanilla, ReadVsRDMA float64
}

// RunHeadline reproduces the paper's headline numbers: GroupByTest with 8
// Spark workers (448 cores on Frontera), MPI4Spark vs Vanilla vs RDMA.
// The paper reports 4.23x/2.04x end-to-end and 13.08x/5.56x shuffle read.
func RunHeadline(o Options) (*HeadlineResult, *metrics.Table, error) {
	o.defaults()
	workers := 8
	run := func(b spark.Backend) (*ohb.Result, error) {
		return runWeakPoint(o, Frontera, workers, b, "GroupBy", "")
	}
	v, err := run(spark.BackendVanilla)
	if err != nil {
		return nil, nil, err
	}
	r, err := run(spark.BackendRDMA)
	if err != nil {
		return nil, nil, err
	}
	m, err := run(spark.BackendMPIOpt)
	if err != nil {
		return nil, nil, err
	}
	h := &HeadlineResult{
		Workers:       workers,
		TotalVanilla:  v.Total,
		TotalRDMA:     r.Total,
		TotalMPI:      m.Total,
		ReadVanilla:   v.ShuffleReadTime(),
		ReadRDMA:      r.ShuffleReadTime(),
		ReadMPI:       m.ShuffleReadTime(),
		E2EVsVanilla:  metrics.Speedup(v.Total, m.Total),
		E2EVsRDMA:     metrics.Speedup(r.Total, m.Total),
		ReadVsVanilla: metrics.Speedup(v.ShuffleReadTime(), m.ShuffleReadTime()),
		ReadVsRDMA:    metrics.Speedup(r.ShuffleReadTime(), m.ShuffleReadTime()),
	}
	t := &metrics.Table{
		Title:   "Headline (§VII): GroupByTest, 8 workers, Frontera profile",
		Columns: []string{"Metric", "IPoIB", "RDMA", "MPI4Spark", "vs IPoIB", "vs RDMA"},
		Notes: []string{
			"paper: 4.23x / 2.04x end-to-end, 13.08x / 5.56x shuffle read (448 cores)",
		},
	}
	t.AddRow("End-to-end", h.TotalVanilla, h.TotalRDMA, h.TotalMPI, h.E2EVsVanilla, h.E2EVsRDMA)
	t.AddRow("Shuffle read", h.ReadVanilla, h.ReadRDMA, h.ReadMPI, h.ReadVsVanilla, h.ReadVsRDMA)
	return h, t, nil
}

// ChaosKillRow is one chaos-kill recovery measurement: the virtual cost
// of re-running a shuffle job after an executor process died mid-reduce,
// with the external shuffle service off (map outputs die with the
// executor) or on (outputs survive on the per-worker services).
type ChaosKillRow struct {
	Backend       spark.Backend
	Service       bool
	BaselineTime  vtime.Stamp // the same job with no failure
	RecoveryTime  vtime.Stamp // the job that absorbed the kill
	Resubmissions int64       // scheduler.map_stage.resubmissions delta
	FetchFails    int64       // scheduler.fetch_failed delta
	ServedBytes   int64       // shuffle.service.served_bytes delta
}

// RunChaosKill measures one backend/service configuration: job 1
// materializes a shuffle and sets the no-failure baseline, then an
// executor process is killed the moment its first reduce task of job 2
// starts, and job 2's recovery is timed. When eventLog is non-empty the
// run's lifecycle events are recorded there for cmd/eventlog replay.
func RunChaosKill(o Options, backend spark.Backend, service bool, eventLog string) (*ChaosKillRow, error) {
	o.defaults()
	const workers = 3
	spec := ClusterSpec{
		System:         Frontera,
		Workers:        workers,
		Backend:        backend,
		SlotsPerWorker: o.SlotsPerWorker,
		Supervise:      true,
		ShuffleService: service,
		EventLogPath:   eventLog,
	}
	cl, err := BuildCluster(spec)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	nParts := workers * o.SlotsPerWorker
	pairBytes := int64(o.ValueBytes + 8)
	perPart := int(o.BytesPerWorker * int64(workers) / int64(nParts) / pairBytes)
	if perPart < 10 {
		perPart = 10
	}
	valueBytes := o.ValueBytes
	pairs := spark.Generate(cl.Ctx, nParts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], perPart)
		for i := range out {
			out[i] = spark.Pair[int64, int64]{K: int64(i % 64), V: int64(part + 1)}
		}
		tc.ChargeRecords(len(out), (valueBytes+8)*len(out))
		return out
	})
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: nParts,
	}
	summed := spark.ReduceByKey(pairs, conf, func(a, b int64) int64 { return a + b })

	row := &ChaosKillRow{Backend: backend, Service: service}
	start := cl.Ctx.Clock()
	if _, err := spark.Collect(summed); err != nil {
		return nil, fmt.Errorf("baseline job: %w", err)
	}
	row.BaselineTime = cl.Ctx.Clock() - start

	// Arm the kill: the first reduce task of the next job to start on the
	// victim takes its executor process down synchronously.
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

	snap := metrics.Snapshot()
	start = cl.Ctx.Clock()
	if _, err := spark.Collect(summed); err != nil {
		return nil, fmt.Errorf("recovery job: %w", err)
	}
	row.RecoveryTime = cl.Ctx.Clock() - start
	row.Resubmissions = snap.DeltaValue("scheduler.map_stage.resubmissions")
	row.FetchFails = snap.DeltaValue("scheduler.fetch_failed")
	row.ServedBytes = snap.DeltaValue(shuffleservice.CounterServedBytes)
	return row, nil
}

// RunChaosKillTable runs the chaos-kill recovery matrix — every backend,
// service off then on — and renders the recovery-cost comparison.
// eventLogDir, when non-empty, receives one JSONL log per run (named
// chaos-<backend>-<off|on>.jsonl) for cmd/eventlog replay.
func RunChaosKillTable(o Options, eventLogDir string) ([]ChaosKillRow, *metrics.Table, error) {
	var rows []ChaosKillRow
	for _, backend := range []spark.Backend{
		spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt,
	} {
		for _, service := range []bool{false, true} {
			logPath := ""
			if eventLogDir != "" {
				mode := "off"
				if service {
					mode = "on"
				}
				logPath = fmt.Sprintf("%s/chaos-%s-%s.jsonl", eventLogDir, backend, mode)
			}
			row, err := RunChaosKill(o, backend, service, logPath)
			if err != nil {
				return nil, nil, fmt.Errorf("chaos %s service=%v: %w", backend, service, err)
			}
			rows = append(rows, *row)
		}
	}
	t := &metrics.Table{
		Title:   "Chaos kill: executor death mid-reduce, recovery cost (virtual time)",
		Columns: []string{"Backend", "Service", "Baseline", "Recovery", "Overhead%", "MapResubmits", "FetchFails"},
		Notes: []string{
			"service off: map outputs die with the executor -> FetchFailed + map-stage resubmission",
			"service on: outputs survive on per-worker services -> reduce-only retry, zero resubmissions",
		},
	}
	for _, r := range rows {
		mode := "off"
		if r.Service {
			mode = "on"
		}
		overhead := 0.0
		if r.BaselineTime > 0 {
			overhead = 100 * float64(r.RecoveryTime-r.BaselineTime) / float64(r.BaselineTime)
		}
		t.AddRow(r.Backend, mode, r.BaselineTime, r.RecoveryTime,
			fmt.Sprintf("%.1f", overhead), r.Resubmissions, r.FetchFails)
	}
	return rows, t, nil
}

// SkewRow is one skewed-GroupBy measurement: the OHB GroupBy pattern with
// half the shuffle volume on a single hot key, run with adaptive execution
// (and speculation) off or on. Checksum is the run's order-insensitive
// group checksum — it must be identical across backends and modes, or the
// adaptive rewrite changed the job's answer.
type SkewRow struct {
	Backend      spark.Backend
	Adaptive     bool
	Total        vtime.Stamp
	ReduceStage  vtime.Stamp // the shuffle-read ResultStage's duration
	Splits       int64       // scheduler.adaptive.splits delta
	Coalesces    int64       // scheduler.adaptive.coalesces delta
	SpecLaunched int64       // scheduler.speculation.launched delta
	SpecWon      int64       // scheduler.speculation.won delta
	Checksum     int64
}

// RunSkew measures one backend/adaptive configuration of the skewed
// GroupBy. The external shuffle service is on, so split sub-tasks exercise
// the ranged merged-run path. Speculation stays off in both modes: it is a
// separate mechanism (proven by its own tests), and speculative attempts
// on the uniform early stages would perturb the slot clocks and muddy the
// adaptive comparison. The cluster shape is pinned (4 workers x 4 slots)
// like the chaos experiment, so the hot partition can fan out across 16
// map-range sub-tasks. The CPU model is the unscaled default (one slot =
// one core) rather than the core-consolidation-scaled profile: skew
// splitting targets workloads whose hot partition is bound by reduce-side
// compute (a UDF-heavy aggregation), and the consolidation factor would
// shrink per-record compute ~14x, leaving every backend bound by shuffle
// fetch — a regime where no reduce-side re-partitioning can help, since
// the same bytes cross the same wires either way. When eventLog is
// non-empty the run's lifecycle events are recorded there for
// cmd/eventlog replay (split sub-tasks and per-stage skew show up in its
// timeline).
func RunSkew(o Options, backend spark.Backend, adaptive bool, eventLog string) (*SkewRow, error) {
	o.defaults()
	const workers, slots = 4, 4
	spec := ClusterSpec{
		System:         Frontera,
		Workers:        workers,
		Backend:        backend,
		SlotsPerWorker: slots,
		CPU:            spark.DefaultCPUModel(),
		ShuffleService: true,
		EventLogPath:   eventLog,
		Adaptive:       adaptive,
	}
	cl, err := BuildCluster(spec)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cfg := ohb.SkewConfig{
		Config: ohbConfig(o, workers, slots, o.BytesPerWorker*int64(workers)),
	}
	snap := metrics.Snapshot()
	res, err := ohb.RunSkewedGroupBy(cl.Ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &SkewRow{
		Backend:      backend,
		Adaptive:     adaptive,
		Total:        res.Total,
		ReduceStage:  res.ShuffleReadTime(),
		Splits:       snap.DeltaValue(spark.CounterAdaptiveSplits),
		Coalesces:    snap.DeltaValue(spark.CounterAdaptiveCoalesces),
		SpecLaunched: snap.DeltaValue(spark.CounterSpecLaunched),
		SpecWon:      snap.DeltaValue(spark.CounterSpecWon),
		Checksum:     res.Output,
	}, nil
}

// RunSkewTable runs the skewed-GroupBy matrix — every backend, adaptive
// off then on — verifies every run produced the identical checksum, and
// renders the reduce-stage comparison. eventLogDir, when non-empty,
// receives one JSONL log per run (skew-<backend>-<off|on>.jsonl).
func RunSkewTable(o Options, eventLogDir string) ([]SkewRow, *metrics.Table, error) {
	var rows []SkewRow
	for _, backend := range []spark.Backend{
		spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt,
	} {
		for _, adaptive := range []bool{false, true} {
			logPath := ""
			if eventLogDir != "" {
				mode := "off"
				if adaptive {
					mode = "on"
				}
				logPath = fmt.Sprintf("%s/skew-%s-%s.jsonl", eventLogDir, backend, mode)
			}
			row, err := RunSkew(o, backend, adaptive, logPath)
			if err != nil {
				return nil, nil, fmt.Errorf("skew %s adaptive=%v: %w", backend, adaptive, err)
			}
			rows = append(rows, *row)
		}
	}
	for _, r := range rows[1:] {
		if r.Checksum != rows[0].Checksum {
			return nil, nil, fmt.Errorf("skew: checksum diverged: %s adaptive=%v got %x, want %x",
				r.Backend, r.Adaptive, r.Checksum, rows[0].Checksum)
		}
	}
	t := &metrics.Table{
		Title:   "Skewed GroupBy (hot key = 50% of data): adaptive execution off vs on",
		Columns: []string{"Backend", "Adaptive", "ReduceStage", "E2E", "Splits", "Coalesces", "SpecLaunched", "ReduceSpeedup"},
		Notes: []string{
			"identical group checksums across all runs (bit-identical results)",
			"speedup = reduce-stage duration off / on, per backend",
		},
	}
	for i := 0; i < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		speedup := 0.0
		if on.ReduceStage > 0 {
			speedup = float64(off.ReduceStage) / float64(on.ReduceStage)
		}
		t.AddRow(off.Backend, "off", off.ReduceStage, off.Total, off.Splits, off.Coalesces, off.SpecLaunched, "")
		t.AddRow(on.Backend, "on", on.ReduceStage, on.Total, on.Splits, on.Coalesces, on.SpecLaunched,
			fmt.Sprintf("%.2fx", speedup))
	}
	return rows, t, nil
}

// NetChaosRow is one network-chaos measurement: the OHB GroupByTest run
// clean, then re-run on a fresh cluster under a seeded deterministic fault
// schedule. Two schedules run per backend: "paper" is the issue's exact
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
	Drops     int64
	Dups      int64
	Corrupts  int64
	Delays    int64
	LinkDowns int64
	// Detected is the shuffle.integrity.corrupt_detected delta; Events is
	// the number of BlockCorrupt observability events seen on the bus.
	// Both must equal Corrupts.
	Detected int64
	Events   int64
	// Refetches counts verification-triggered refetches (per-block
	// fallback from a poisoned merged run, or corrupt-block retries).
	Refetches int64
	// Checked is the number of CRC32C verifications performed.
	Checked     int64
	CleanOutput int64
	FaultOutput int64
}

// netChaosPlan builds one seeded fault schedule. The partition window is
// anchored a quarter into the clean run's shuffle-read stage and kept
// shorter than the fetch retry policy's total exponential backoff
// (200+400+800 µs), so reducers that lose a fetch to the partition are
// still retrying when it heals.
func netChaosPlan(seed int64, stress bool, reduceStart, reduceDur vtime.Stamp) faults.Plan {
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
	partAt := reduceStart + reduceDur/4
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

// netChaosFaulty runs the faulted leg of one netchaos measurement and
// fills in the row, enforcing the bit-identical and injected==detected
// invariants against the clean leg already recorded in the row.
func netChaosFaulty(spec ClusterSpec, cfg ohb.Config, plan faults.Plan, eventLog string, row *NetChaosRow) error {
	spec.Faults = &plan
	spec.EventLogPath = eventLog
	faulty, err := BuildCluster(spec)
	if err != nil {
		return err
	}
	defer faulty.Close()
	var corruptEvents atomic.Int64
	faulty.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
		if e.Type == obs.EvBlockCorrupt {
			corruptEvents.Add(1)
		}
	}))
	snap := metrics.Snapshot()
	fres, err := ohb.RunGroupByTest(faulty.Ctx, cfg)
	if err != nil {
		return fmt.Errorf("faulty run: %w", err)
	}
	row.FaultTime = fres.Total
	row.FaultOutput = fres.Output
	row.Detected = snap.DeltaValue(shuffle.CounterCorruptDetected)
	row.Refetches = snap.DeltaValue(shuffle.CounterIntegrityRefetches)
	row.Checked = snap.DeltaValue(shuffle.CounterIntegrityChecked)
	row.Events = corruptEvents.Load()
	plane, ok := faulty.Fabric.FaultPlane().(*faults.Plane)
	if !ok {
		return fmt.Errorf("fault plane not installed")
	}
	c := plane.Counters()
	row.Drops, row.Dups, row.Corrupts, row.Delays, row.LinkDowns =
		c.Drops, c.Dups, c.Corrupts, c.Delays, c.LinkDowns

	if row.FaultOutput != row.CleanOutput {
		return fmt.Errorf("output diverged under faults: clean %d, faulty %d",
			row.CleanOutput, row.FaultOutput)
	}
	if row.Detected != row.Corrupts {
		return fmt.Errorf("%d corruptions injected but %d detected", row.Corrupts, row.Detected)
	}
	if row.Events != row.Detected {
		return fmt.Errorf("%d detections but %d BlockCorrupt events", row.Detected, row.Events)
	}
	return nil
}

// RunNetChaos measures one backend: a clean GroupByTest run, then the same
// job on fresh clusters under the paper and stress schedules. The external
// shuffle service is on, so corruption lands on merged-run serves and the
// degradation chain (refetch, merged-run → per-block fallback) does the
// repair. When eventLogDir is non-empty each faulty run's lifecycle events
// are recorded there (netchaos-<backend>-<schedule>.jsonl).
func RunNetChaos(o Options, backend spark.Backend, eventLogDir string) ([]NetChaosRow, error) {
	o.defaults()
	// Pinned shape: 4 workers x 4 slots, 32 shuffle partitions — a wide
	// fan-out (1024 blocks pushed and fetched per run) so the fault rates
	// have a realistic population to draw from.
	const workers, slots, parts = 4, 4, 32
	spec := ClusterSpec{
		System:         Frontera,
		Workers:        workers,
		Backend:        backend,
		SlotsPerWorker: slots,
		ShuffleService: true,
	}
	cfg := ohbConfig(o, 1, parts, o.BytesPerWorker*int64(workers))

	// Clean run: baseline time, output checksum, and the shuffle-read
	// stage's span for anchoring the partition window. A fresh cluster's
	// virtual clock starts at zero, so its stage stamps transfer to the
	// faulted runs.
	clean, err := BuildCluster(spec)
	if err != nil {
		return nil, err
	}
	res, err := ohb.RunGroupByTest(clean.Ctx, cfg)
	clean.Close()
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	var reduceStart, reduceDur vtime.Stamp
	for i := len(res.Stages) - 1; i >= 0; i-- {
		if res.Stages[i].Kind == "ResultStage" && res.Stages[i].ShuffleBytes > 0 {
			reduceStart = res.Stages[i].Start
			reduceDur = res.Stages[i].Duration()
			break
		}
	}

	var rows []NetChaosRow
	for _, schedule := range []string{"paper", "stress"} {
		row := NetChaosRow{
			Backend:     backend,
			Schedule:    schedule,
			CleanTime:   res.Total,
			CleanOutput: res.Output,
		}
		logPath := ""
		if eventLogDir != "" {
			logPath = fmt.Sprintf("%s/netchaos-%s-%s.jsonl", eventLogDir, backend, schedule)
		}
		plan := netChaosPlan(o.Seed, schedule == "stress", reduceStart, reduceDur)
		if err := netChaosFaulty(spec, cfg, plan, logPath, &row); err != nil {
			return nil, fmt.Errorf("netchaos %s %s: %w", backend, schedule, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunNetChaosTable runs the network-chaos matrix — every backend, paper
// then stress schedule — and renders the injection/detection
// reconciliation. Each row has already been verified bit-identical to its
// clean run and fully reconciled (injected == detected == events); the
// table is the evidence trail. The stress rows additionally assert the
// conformance requirement that a schedule which lands corrupt frames is
// never silently clean (detected > 0).
func RunNetChaosTable(o Options, eventLogDir string) ([]NetChaosRow, *metrics.Table, error) {
	var rows []NetChaosRow
	for _, backend := range []spark.Backend{
		spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt,
	} {
		brs, err := RunNetChaos(o, backend, eventLogDir)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range brs {
			if r.Schedule == "stress" && r.Detected == 0 {
				return nil, nil, fmt.Errorf("netchaos %s stress: no corruptions detected — seam dead?", backend)
			}
		}
		rows = append(rows, brs...)
	}
	t := &metrics.Table{
		Title:   "Network chaos: seeded drop/dup/corrupt/partition, integrity reconciliation",
		Columns: []string{"Backend", "Schedule", "Clean", "Faulty", "Overhead%", "Drops", "Dups", "Corrupt(inj)", "Detected", "Events", "Refetches", "Checked"},
		Notes: []string{
			"paper: 1% drop (300us retransmit), 1% dup, 0.1% corrupt, 20us jitter, one 600us w1|w2 partition mid-reduce",
			"stress: same, with 3% dup and 5% corrupt (non-trivial detection witnesses on every backend)",
			"every row: faulty output bit-identical to clean; injected == detected == BlockCorrupt events",
		},
	}
	for _, r := range rows {
		overhead := 0.0
		if r.CleanTime > 0 {
			overhead = 100 * float64(r.FaultTime-r.CleanTime) / float64(r.CleanTime)
		}
		t.AddRow(r.Backend, r.Schedule, r.CleanTime, r.FaultTime, fmt.Sprintf("%.1f", overhead),
			r.Drops, r.Dups, r.Corrupts, r.Detected, r.Events, r.Refetches, r.Checked)
	}
	return rows, t, nil
}
