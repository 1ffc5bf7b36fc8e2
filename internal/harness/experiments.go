package harness

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/hibench"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// Options scales the experiments. Zero fields take DefaultOptions' values
// when an experiment runs through Experiment.Run; cmd/experiments exposes
// them as flags whose defaults are DefaultOptions'. The Run* functions
// below take them as given.
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

// DefaultOptions is the laptop-scale evaluation: the one source of every
// Options default.
func DefaultOptions() Options {
	return Options{
		Workers:        4,
		WorkerCounts:   []int{2, 4, 8},
		BytesPerWorker: 8 << 20,
		TotalBytes:     32 << 20,
		ValueBytes:     100,
		SlotsPerWorker: 2,
		Seed:           2022,
	}
}

// defaults fills o's zero fields (sizes below one) from DefaultOptions.
func (o *Options) defaults() {
	d := DefaultOptions()
	atLeastOne(&o.Workers, d.Workers)
	atLeastOne(&o.SlotsPerWorker, d.SlotsPerWorker)
	atLeastOne(&o.BytesPerWorker, d.BytesPerWorker)
	atLeastOne(&o.TotalBytes, d.TotalBytes)
	atLeastOne(&o.ValueBytes, d.ValueBytes)
	if len(o.WorkerCounts) == 0 {
		o.WorkerCounts = d.WorkerCounts
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
}

// atLeastOne sets *v to d when *v is below one.
func atLeastOne[T int | int64](v *T, d T) {
	if *v < 1 {
		*v = d
	}
}

// Cell is one measured run: a fresh cluster built from Spec, and Job on
// it. A cell can run again and again, each time on a cluster of its own.
type Cell struct {
	Spec ClusterSpec
	// Counters names the counters whose deltas across Job Run returns.
	Counters []string
	// Setup, when set, runs on the cluster before the counters are
	// snapshotted: work the deltas must not count (a baseline job, building
	// a pipeline).
	Setup func(*Cluster) error
	Job   func(*Cluster) error
}

// Run builds the cell's cluster, runs Setup, snapshots the counters, runs
// Job and closes the cluster. The deltas come back whether or not Job
// failed. The cell runs on one P, the caller's GOMAXPROCS restored after:
// its modelled numbers then follow no host thread interleaving.
func (c Cell) Run() (map[string]int64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cl, err := BuildCluster(c.Spec)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if c.Setup != nil {
		if err := c.Setup(cl); err != nil {
			return nil, err
		}
	}
	snap := metrics.Snapshot()
	err = c.Job(cl)
	deltas := make(map[string]int64, len(c.Counters))
	for _, name := range c.Counters {
		deltas[name] = snap.DeltaValue(name)
	}
	return deltas, err
}

// backends is every backend, in the order the tables list them.
var backends = []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt}

// sweep runs one measurement per backend of bs and mode, backends
// outermost, in the order the tables list them. eventLog is the run's
// event log for cmd/eventlog, <dir>/<exp>-<backend>[-<mode>].jsonl, or ""
// when dir is empty.
func sweep(bs []spark.Backend, dir, exp string, modes []string, run func(b spark.Backend, mode, eventLog string) error) error {
	for _, b := range bs {
		for _, mode := range modes {
			name := exp + "-" + b.String()
			if mode != "" {
				name += "-" + mode
			}
			eventLog := ""
			if dir != "" {
				eventLog = filepath.Join(dir, name+".jsonl")
			}
			if err := run(b, mode, eventLog); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return nil
}

// int64Conf is the shuffle of int64 pairs the chaos and streaming
// experiments aggregate with.
func int64Conf(parts int) spark.ShuffleConf[int64, int64] {
	return spark.ShuffleConf[int64, int64]{Parts: parts, Ops: spark.Int64Key{},
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}}}
}

// ohbConfig derives an OHB configuration from a data volume.
func ohbConfig(o Options, workers, slots int, totalBytes int64) ohb.Config {
	mappers := workers * slots
	pairBytes := int64(o.ValueBytes + 8)
	perMapper := max(int(totalBytes/int64(mappers)/pairBytes), 10)
	return ohb.Config{
		Mappers:        mappers,
		Reducers:       mappers,
		PairsPerMapper: perMapper,
		ValueBytes:     o.ValueBytes,
		KeyRange:       int64(mappers*perMapper)/4 + 1,
		Seed:           o.Seed,
	}
}

// frontera is the cluster of a figure point: workers Frontera workers at
// o's slot count.
func frontera(o Options, workers int, b spark.Backend) ClusterSpec {
	return ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker}
}

// RunOHB runs OHB benchmark bench (GroupBy or SortBy) once on a fresh
// cluster built from spec, sized by ohbConfig for totalBytes across its
// workers. Every OHB run of the figures is one of these: the points of
// Figures 9-11, the headline and a single -exp ohb run, and the root
// benchmarks that time those points, so each is the job of the figure
// point it names.
func RunOHB(o Options, spec ClusterSpec, bench string, totalBytes int64) (res *ohb.Result, err error) {
	job, ok := map[string]func(*spark.Context, ohb.Config) (*ohb.Result, error){
		"GroupBy": ohb.RunGroupByTest, "SortBy": ohb.RunSortByTest}[bench]
	if !ok {
		return nil, fmt.Errorf("harness: unknown OHB benchmark %q", bench)
	}
	if spec.Workers < 1 || spec.SlotsPerWorker < 1 {
		return nil, fmt.Errorf("harness: an OHB run needs workers and slots, got %d x %d", spec.Workers, spec.SlotsPerWorker)
	}
	cfg := ohbConfig(o, spec.Workers, spec.SlotsPerWorker, totalBytes)
	_, err = Cell{Spec: spec, Job: func(cl *Cluster) (err error) {
		res, err = job(cl.Ctx, cfg)
		return err
	}}.Run()
	return res, err
}

// singleSpec is the cluster of one -exp ohb or -exp hibench run: the
// weak-scaling point's o.Workers on the system and backend a names.
func singleSpec(o Options, a Args) ClusterSpec {
	return ClusterSpec{System: a.System, Workers: o.Workers, Backend: a.Backend, SlotsPerWorker: o.SlotsPerWorker, EventLogPath: a.EventLog}
}

// singleRunTitle heads the table of one run of one benchmark.
func singleRunTitle(suite, name string, o Options, a Args) string {
	return fmt.Sprintf("%s %s: %s, %d workers x %d slots, %s backend",
		suite, name, a.System.Name, o.Workers, o.SlotsPerWorker, a.Backend)
}

// stageTable renders one run's stages, a TOTAL row and one note; detail
// adds OHB's Tasks and Records columns.
func stageTable(title, note string, stages []spark.StageTiming, total vtime.Stamp, detail bool) *metrics.Table {
	t := &metrics.Table{Title: title, Columns: []string{"Stage", "Duration", "ShuffleBytes"}, Notes: []string{note}}
	if detail {
		t.Columns = []string{"Stage", "Duration", "Tasks", "Records", "ShuffleBytes"}
	}
	for _, s := range stages {
		row := []any{s.Name, s.Duration()}
		if detail {
			row = append(row, s.Tasks, s.Records)
		}
		t.AddRow(append(row, s.ShuffleBytes)...)
	}
	t.AddRow("TOTAL", total)
	return t
}

// runSingleOHB runs GroupByTest or SortByTest once at the weak-scaling
// point (o.Workers, o.BytesPerWorker) and renders the paper-style stage
// breakdown.
func runSingleOHB(o Options, a Args) (*ohb.Result, *metrics.Table, error) {
	res, err := RunOHB(o, singleSpec(o, a), a.Bench, o.BytesPerWorker*int64(o.Workers))
	if err != nil {
		return nil, nil, err
	}
	return res, stageTable(singleRunTitle("OHB", res.Name, o, a), fmt.Sprintf("action output: %d", res.Output),
		res.Stages, res.Total, true), nil
}

// runOSU runs the OSU-style latency sweep of one collective (Bcast from
// 4 B or Allreduce from 8 B, a.Iters timed iterations per message size).
func runOSU(o Options, a Args) (*metrics.Table, error) {
	osu, sizes := ohb.RunOSUBcast, ohb.DefaultOSUSizes()
	if a.Bench == "Allreduce" {
		osu, sizes = ohb.RunOSUAllreduce, ohb.AllreduceOSUSizes()
	}
	var res *ohb.OSUResult
	if _, err := (Cell{Spec: singleSpec(o, a), Job: func(cl *Cluster) (err error) {
		res, err = osu(cl.Ctx, sizes, a.Iters)
		return err
	}}).Run(); err != nil {
		return nil, err
	}
	t := &metrics.Table{Title: singleRunTitle("OSU", res.Name, o, a), Columns: []string{"Size", "Latency"}}
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
		nodes := []*fabric.Node{f.AddNode("node0"), f.AddNode("node1")}
		var comm *mpi.Comm
		if useMPI {
			comm = mpi.NewWorld(f).InitWorld(nodes)
		}
		newEnv := func(name string, rank int) (*rpc.Env, error) {
			if comm == nil {
				return rpc.NewEnv(name, nodes[rank], "rpc", rpc.DefaultEnvConfig())
			}
			id := &core.Identity{Kind: core.KindParent, World: comm.Handle(rank)}
			env, _, err := core.NewMPIEnv(name, nodes[rank], "rpc", id, core.DesignBasic, rpc.EnvConfig{})
			return env, err
		}
		envA, err := newEnv("client", 0)
		if err != nil {
			return nil, err
		}
		defer envA.Shutdown()
		envB, err := newEnv("server", 1)
		if err != nil {
			return nil, err
		}
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
	table := &metrics.Table{
		Title:   "Figure 9: MPI4Spark-Basic vs MPI4Spark-Optimized (Frontera profile)",
		Columns: []string{"Benchmark", "Workers", "Backend", "Total", "ShuffleRead"},
		Notes:   []string{"Basic's Iprobe polling starves compute; Optimized avoids it"},
	}
	for _, bench := range []string{"GroupBy", "SortBy"} {
		for _, workers := range []int{max(o.Workers/2, 1), o.Workers} {
			for _, b := range []spark.Backend{spark.BackendVanilla, spark.BackendMPIBasic, spark.BackendMPIOpt} {
				res, err := RunOHB(o, frontera(o, workers, b), bench, o.BytesPerWorker*int64(workers))
				if err != nil {
					return nil, err
				}
				table.AddRow(bench, workers, b, res.Total, res.ShuffleReadTime())
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

// runScaling executes one OHB benchmark across worker counts and backends
// and renders the paper's breakdown under title.
func runScaling(o Options, bench, title string, totalBytesFor func(workers int) int64) ([]ScalingRow, *metrics.Table, error) {
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"Workers", "Backend", "DataGen", "ShuffleWrite", "ShuffleRead", "Total"},
		Notes:   []string{"breakdown follows the paper: Job0-ResultStage / ShuffleMapStage / shuffle-read ResultStage"},
	}
	var rows []ScalingRow
	for _, workers := range o.WorkerCounts {
		for _, b := range []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIOpt} {
			res, err := RunOHB(o, frontera(o, workers, b), bench, totalBytesFor(workers))
			if err != nil {
				return nil, nil, err
			}
			r := ScalingRow{Workers: workers, Backend: b, Total: res.Total}
			for _, s := range res.Stages {
				switch {
				case s.JobID == 0:
					r.DataGen += s.Duration()
				case s.Kind == "ShuffleMapStage":
					r.ShuffleMap += s.Duration()
				case s.Kind == "ResultStage" && s.ShuffleBytes > 0:
					r.ShuffleRead += s.Duration()
				default:
					// Sampling job (SortBy): fold into data generation.
					r.DataGen += s.Duration()
				}
			}
			rows = append(rows, r)
			t.AddRow(r.Workers, r.Backend, r.DataGen, r.ShuffleMap, r.ShuffleRead, r.Total)
		}
	}
	return rows, t, nil
}

// RunFig10 reproduces the weak-scaling breakdown (Figure 10): data grows
// with the worker count.
func RunFig10(o Options, bench string) ([]ScalingRow, *metrics.Table, error) {
	return runScaling(o, bench, fmt.Sprintf("Figure 10: weak scaling %sTest breakdown (Frontera profile)", bench),
		func(workers int) int64 { return o.BytesPerWorker * int64(workers) })
}

// RunFig11 reproduces the strong-scaling breakdown (Figure 11): fixed data
// volume across worker counts.
func RunFig11(o Options, bench string) ([]ScalingRow, *metrics.Table, error) {
	return runScaling(o, bench, fmt.Sprintf("Figure 11: strong scaling %sTest breakdown (Frontera profile)", bench),
		func(int) int64 { return o.TotalBytes })
}

// scaleRow is one cell of the task-axis sweep: OHB GroupBy at one slot
// count on one backend. Readers is the number of executors that ran a task
// which read the shuffle; Asks, ReplyBytes, Timeouts and Resubmits are the
// run's deltas of shuffle.tracker.asks, shuffle.tracker.reply_bytes,
// shuffle.fetch.timeouts and scheduler.map_stage.resubmissions. Err is the
// job's failure, if it failed.
type scaleRow struct {
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

const counterResubmits = "scheduler.map_stage.resubmissions"

// scaleWorkers is the task-axis sweep's worker count: the paper's 448 cores
// are 8 Frontera nodes of 56.
const scaleWorkers = 8

// runScaleCell runs GroupBy once at (scaleWorkers, slots, o.BytesPerWorker)
// on a fresh cluster and counts the executors that read the shuffle.
func runScaleCell(o Options, slots int, b spark.Backend) scaleRow {
	cfg := ohbConfig(o, scaleWorkers, slots, o.BytesPerWorker*scaleWorkers)
	var mu sync.Mutex
	readers := map[string]bool{}
	var res *ohb.Result
	d, err := Cell{
		Spec:     ClusterSpec{System: Frontera, Workers: scaleWorkers, Backend: b, SlotsPerWorker: slots},
		Counters: []string{"shuffle.tracker.asks", "shuffle.tracker.reply_bytes", "shuffle.fetch.timeouts", counterResubmits},
		Job: func(cl *Cluster) (err error) {
			cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
				if e.Type == obs.EvTaskEnd && e.BytesLocal+e.BytesRemote > 0 {
					mu.Lock()
					readers[e.Executor] = true
					mu.Unlock()
				}
			}))
			res, err = ohb.RunGroupByTest(cl.Ctx, cfg)
			return err
		},
	}.Run()
	row := scaleRow{
		Blocks: cfg.Mappers * cfg.Reducers, Err: err,
		Asks: d["shuffle.tracker.asks"], ReplyBytes: d["shuffle.tracker.reply_bytes"],
		Timeouts: d["shuffle.fetch.timeouts"], Resubmits: d[counterResubmits],
	}
	mu.Lock()
	row.Readers = len(readers)
	mu.Unlock()
	if err == nil {
		row.Read, row.Total, row.Output = res.ShuffleReadTime(), res.Total, res.Output
	}
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
func RunScale(o Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: fmt.Sprintf("Task axis: GroupBy, %d workers, %d MiB/worker (Frontera profile), one run per cell",
			scaleWorkers, o.BytesPerWorker>>20),
		Columns: []string{"Slots", "Blocks", "Backend", "Read", "Total", "TrackerAsks", "Tracker MB", "FetchTimeouts"},
	}
	var wrong []string
	for _, slots := range []int{2, 14, 56} {
		for _, b := range backends {
			r := runScaleCell(o, slots, b)
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
		return t, fmt.Errorf("scale: tracker asks != executors: %s", strings.Join(wrong, "; "))
	}
	return t, nil
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
	perPart := max(int(o.BytesPerWorker*int64(workers)/int64(parts)/400), 50)
	ml := hibench.MLConfig{Parts: parts, PerPart: perPart, Dim: 32, Iterations: 3, StepSize: 0.1, Seed: o.Seed}
	return map[string]func(*spark.Context) (*hibench.Result, error){
		"LDA": func(ctx *spark.Context) (*hibench.Result, error) {
			return hibench.RunLDA(ctx, hibench.LDAConfig{
				Parts: parts, DocsPer: perPart / 10, Vocab: 2000, WordsPer: 40, K: 8, Iterations: 3, Seed: o.Seed,
			})
		},
		"SVM": func(ctx *spark.Context) (*hibench.Result, error) { return hibench.RunSVM(ctx, ml) },
		"LR":  func(ctx *spark.Context) (*hibench.Result, error) { return hibench.RunLogisticRegression(ctx, ml) },
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

// runHiBench runs one HiBench workload on a fresh cluster built from spec,
// sized by hibenchWorkloads at (spec.Workers, o.BytesPerWorker). Figure 12
// is made of these and a single -exp hibench run is one.
func runHiBench(o Options, spec ClusterSpec, workload string) (res *hibench.Result, err error) {
	job, ok := hibenchWorkloads(o, spec.Workers, spec.SlotsPerWorker)[workload]
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", workload)
	}
	_, err = Cell{Spec: spec, Job: func(cl *Cluster) (err error) {
		res, err = job(cl.Ctx)
		return err
	}}.Run()
	return res, err
}

// RunFig12 reproduces the HiBench comparison for one system profile:
// Figure 12(a,b) on Frontera (with RDMA-Spark), Figure 12(c) on Stampede2
// (no RDMA baseline there).
func RunFig12(o Options, sys System, workloads []string) ([]HiBenchRow, *metrics.Table, error) {
	bs := []spark.Backend{spark.BackendVanilla}
	if sys.SupportsRDMA {
		bs = append(bs, spark.BackendRDMA)
	}
	bs = append(bs, spark.BackendMPIOpt)

	table := &metrics.Table{
		Title:   fmt.Sprintf("Figure 12: Intel HiBench on %s profile (%d workers)", sys.Name, o.Workers),
		Columns: []string{"Workload", "Backend", "Total"},
	}
	var rows []HiBenchRow
	for _, wl := range workloads {
		for _, b := range bs {
			spec := ClusterSpec{System: sys, Workers: o.Workers, Backend: b, SlotsPerWorker: o.SlotsPerWorker}
			res, err := runHiBench(o, spec, wl)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, HiBenchRow{Workload: wl, Backend: b, Total: res.Total})
			table.AddRow(wl, b, res.Total)
		}
	}
	return rows, table, nil
}

// HeadlineResult is the §VII-E summary: end-to-end and shuffle-read
// speedups of MPI4Spark over Vanilla and RDMA-Spark for GroupByTest.
type HeadlineResult struct {
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
	const workers = 8
	var res [3]*ohb.Result
	for i, b := range []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIOpt} {
		var err error
		if res[i], err = RunOHB(o, frontera(o, workers, b), "GroupBy", o.BytesPerWorker*workers); err != nil {
			return nil, nil, err
		}
	}
	v, r, m := res[0], res[1], res[2]
	h := &HeadlineResult{
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

// Args picks what one experiment runs beside Options' sizes; each field
// is one cmd/experiments flag, read only by the experiments named beside it.
type Args struct {
	Sizes       []int         // fig8: message sizes (nil: the paper's sweep)
	Bench       string        // fig10, fig11, ohb: GroupBy|SortBy; ohb also Bcast|Allreduce
	Workload    string        // hibench
	System      System        // ohb, hibench
	Backend     spark.Backend // ohb, hibench
	Iters       int           // ohb Bcast|Allreduce: timed iterations per size
	EventLog    string        // ohb, hibench: the run's JSONL event log
	EventLogDir string        // chaos, skew, netchaos, streaming: one event log per run
}

// Experiment is one -exp name of cmd/experiments: a figure or table of the
// evaluation, or a single run of one point of it.
type Experiment struct {
	Name string
	// OneRun marks a single run (ohb, hibench): -exp all runs every
	// experiment but these.
	OneRun bool
	run    func(Options, Args) (*metrics.Table, error)
}

// Run runs the experiment at o, its zero fields defaulted. A failed
// experiment returns a table only where the table shows the cell the error
// is about (scale).
func (e Experiment) Run(o Options, a Args) (*metrics.Table, error) {
	o.defaults()
	return e.run(o, a)
}

// tableOf drops the rows a Run* function returns beside its table.
func tableOf[R any](_ R, t *metrics.Table, err error) (*metrics.Table, error) { return t, err }

// Experiments lists every -exp name, in the order -exp all runs them.
var Experiments = []Experiment{
	{Name: "fig8", run: func(_ Options, a Args) (*metrics.Table, error) { return tableOf(RunFig8(a.Sizes)) }},
	{Name: "fig9", run: func(o Options, _ Args) (*metrics.Table, error) { return RunFig9(o) }},
	{Name: "fig10", run: func(o Options, a Args) (*metrics.Table, error) { return tableOf(RunFig10(o, a.Bench)) }},
	{Name: "fig11", run: func(o Options, a Args) (*metrics.Table, error) { return tableOf(RunFig11(o, a.Bench)) }},
	{Name: "fig12", run: func(o Options, _ Args) (*metrics.Table, error) {
		return tableOf(RunFig12(o, Frontera, []string{"LDA", "SVM", "GMM", "Repartition", "NWeight", "TeraSort"}))
	}},
	{Name: "fig12c", run: func(o Options, _ Args) (*metrics.Table, error) {
		return tableOf(RunFig12(o, Stampede2, []string{"LR", "GMM", "SVM", "Repartition"}))
	}},
	{Name: "headline", run: func(o Options, _ Args) (*metrics.Table, error) { return tableOf(RunHeadline(o)) }},
	{Name: "chaos", run: func(o Options, a Args) (*metrics.Table, error) { return runChaosKill(o, a.EventLogDir) }},
	{Name: "skew", run: func(o Options, a Args) (*metrics.Table, error) { return runSkew(o, a.EventLogDir) }},
	{Name: "scale", run: func(o Options, _ Args) (*metrics.Table, error) { return RunScale(o) }},
	{Name: "netchaos", run: func(o Options, a Args) (*metrics.Table, error) {
		return tableOf(runNetChaos(o, backends, a.EventLogDir))
	}},
	{Name: "streaming", run: func(o Options, a Args) (*metrics.Table, error) { return runStreaming(o, a.EventLogDir) }},
	{Name: "ohb", OneRun: true, run: func(o Options, a Args) (*metrics.Table, error) {
		if a.Bench == "Bcast" || a.Bench == "Allreduce" {
			return runOSU(o, a)
		}
		return tableOf(runSingleOHB(o, a))
	}},
	{Name: "hibench", OneRun: true, run: func(o Options, a Args) (*metrics.Table, error) {
		res, err := runHiBench(o, singleSpec(o, a), a.Workload)
		if err != nil {
			return nil, err
		}
		return stageTable(singleRunTitle("HiBench", res.Name, o, a), fmt.Sprintf("workload metric: %g", res.Metric),
			res.Stages, res.Total, false), nil
	}},
}
