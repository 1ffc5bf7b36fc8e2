// Benchmarks regenerating the paper's evaluation: one target per figure
// (Figures 8-12), the §VII headline numbers, and the ablations called out
// in DESIGN.md §5. All results are virtual-time measurements reported via
// b.ReportMetric (vt-us/op or vt-ms/op); wall-clock numbers only reflect
// how fast the simulation executes.
//
//	go test -bench=. -benchmem
package mpi4spark_test

import (
	"fmt"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/harness"
	"mpi4spark/internal/hibench"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// benchOpts keeps -bench runs laptop-quick; cmd/experiments exposes the
// larger paper-regime scales. Every field is set: the harness's Run*
// functions take options as given.
func benchOpts() harness.Options {
	return harness.Options{
		Workers:        4,
		WorkerCounts:   []int{2, 4},
		BytesPerWorker: 2 << 20,
		TotalBytes:     8 << 20,
		ValueBytes:     100,
		SlotsPerWorker: 2,
		Seed:           2022,
	}
}

// BenchmarkFig8NettyPingPong regenerates Figure 8: Netty-level ping-pong
// latency for NIO vs Netty+MPI at small and large message sizes.
func BenchmarkFig8NettyPingPong(b *testing.B) {
	for _, size := range []int{64, 64 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var nio, mpiLat time.Duration
			for i := 0; i < b.N; i++ {
				points, _, err := harness.RunFig8([]int{size})
				if err != nil {
					b.Fatal(err)
				}
				nio, mpiLat = points[0].NIO, points[0].MPI
			}
			b.ReportMetric(float64(nio.Microseconds()), "nio-vt-us")
			b.ReportMetric(float64(mpiLat.Microseconds()), "mpi-vt-us")
			b.ReportMetric(float64(nio)/float64(mpiLat), "speedup")
		})
	}
}

// benchOHBPoint times one point of Figures 9-11: harness.RunOHB, the run
// the figure itself makes at (workers, backend, totalBytes), reporting its
// virtual total and shuffle-read times.
func benchOHBPoint(b *testing.B, backend spark.Backend, workers int, bench string, totalBytes int64) {
	b.Helper()
	o := benchOpts()
	spec := harness.ClusterSpec{System: harness.Frontera, Workers: workers, Backend: backend, SlotsPerWorker: o.SlotsPerWorker}
	var res *ohb.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = harness.RunOHB(o, spec, bench, totalBytes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Total.AsDuration().Microseconds())/1000, "total-vt-ms")
	b.ReportMetric(float64(res.ShuffleReadTime().AsDuration().Microseconds())/1000, "read-vt-ms")
}

// BenchmarkFig9BasicVsOptimized regenerates Figure 9: the two MPI4Spark
// designs against Vanilla Spark on GroupByTest.
func BenchmarkFig9BasicVsOptimized(b *testing.B) {
	o := benchOpts()
	for _, backend := range []spark.Backend{spark.BackendVanilla, spark.BackendMPIBasic, spark.BackendMPIOpt} {
		b.Run(backend.String(), func(b *testing.B) {
			benchOHBPoint(b, backend, 2, "GroupBy", o.BytesPerWorker*2)
		})
	}
}

// BenchmarkFig10WeakScaling regenerates Figure 10: GroupBy/SortBy weak
// scaling across backends.
func BenchmarkFig10WeakScaling(b *testing.B) {
	o := benchOpts()
	for _, bench := range []string{"GroupBy", "SortBy"} {
		for _, workers := range o.WorkerCounts {
			for _, backend := range []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIOpt} {
				b.Run(fmt.Sprintf("%s/w=%d/%s", bench, workers, backend), func(b *testing.B) {
					benchOHBPoint(b, backend, workers, bench, o.BytesPerWorker*int64(workers))
				})
			}
		}
	}
}

// BenchmarkFig11StrongScaling regenerates Figure 11: fixed data volume
// across worker counts (GroupByTest).
func BenchmarkFig11StrongScaling(b *testing.B) {
	o := benchOpts()
	for _, workers := range o.WorkerCounts {
		for _, backend := range []spark.Backend{spark.BackendVanilla, spark.BackendMPIOpt} {
			b.Run(fmt.Sprintf("w=%d/%s", workers, backend), func(b *testing.B) {
				benchOHBPoint(b, backend, workers, "GroupBy", o.TotalBytes)
			})
		}
	}
}

// BenchmarkFig12HiBenchFrontera regenerates Figure 12(a,b): HiBench
// workloads on the Frontera profile.
func BenchmarkFig12HiBenchFrontera(b *testing.B) {
	benchmarkHiBench(b, harness.Frontera,
		[]string{"LDA", "SVM", "GMM", "Repartition", "NWeight", "TeraSort"})
}

// BenchmarkFig12HiBenchStampede2 regenerates Figure 12(c): HiBench on the
// Stampede2/Omni-Path profile (no RDMA-Spark baseline there).
func BenchmarkFig12HiBenchStampede2(b *testing.B) {
	benchmarkHiBench(b, harness.Stampede2, []string{"LR", "GMM", "SVM", "Repartition"})
}

func benchmarkHiBench(b *testing.B, sys harness.System, workloads []string) {
	b.Helper()
	o := benchOpts()
	o.Workers = 2
	for _, wl := range workloads {
		b.Run(wl, func(b *testing.B) {
			var rows []harness.HiBenchRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, _, err = harness.RunFig12(o, sys, []string{wl})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				b.ReportMetric(float64(r.Total.AsDuration().Microseconds())/1000,
					fmt.Sprintf("%s-vt-ms", r.Backend))
			}
		})
	}
}

// BenchmarkHeadlineGroupBy448 regenerates the §VII headline: GroupByTest
// with 8 workers (the paper's 448-core configuration), MPI4Spark vs
// Vanilla vs RDMA-Spark.
func BenchmarkHeadlineGroupBy448(b *testing.B) {
	o := benchOpts()
	o.BytesPerWorker = 4 << 20
	var h *harness.HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		h, _, err = harness.RunHeadline(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.E2EVsVanilla, "e2e-vs-ipoib-x")
	b.ReportMetric(h.E2EVsRDMA, "e2e-vs-rdma-x")
	b.ReportMetric(h.ReadVsVanilla, "read-vs-ipoib-x")
	b.ReportMetric(h.ReadVsRDMA, "read-vs-rdma-x")
}

// BenchmarkAblationEagerThreshold sweeps the MPI eager/rendezvous switch
// point and reports the one-way latency of a 128 KiB message under each —
// the protocol-boundary design choice in internal/mpi.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	const msgSize = 128 << 10
	for _, threshold := range []int{16 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("eager=%dKiB", threshold>>10), func(b *testing.B) {
			var lat vtime.Stamp
			for i := 0; i < b.N; i++ {
				f := fabric.New(fabric.NewIBHDRModel())
				n0, n1 := f.AddNode("a"), f.AddNode("b")
				w := mpi.NewWorld(f)
				w.EagerThreshold = threshold
				comm := w.InitWorld([]*fabric.Node{n0, n1})
				done := make(chan vtime.Stamp, 1)
				go func() {
					_, st := comm.Handle(1).Recv(0, 1, 0)
					done <- st.VT
				}()
				comm.Handle(0).Send(1, 1, make([]byte, msgSize), 0)
				lat = <-done
			}
			b.ReportMetric(float64(lat.AsDuration().Microseconds()), "vt-us")
		})
	}
}

// BenchmarkAblationSpinningSelectors sweeps what the Basic design's
// compute starvation is derived from: a worker node's cores (the three
// Table III systems: 28, 56 and 96) and the selectors spinning on them (the
// worker's env and the executor's, plus the external shuffle service's when
// it is on). A non-blocking select + Iprobe loop holds a core whether or
// not it finds a frame, so a node of C cores and k selectors computes at
// C / (C + k) of its speed. It reports GroupByTest totals for Basic and
// Optimized and their ratio.
func BenchmarkAblationSpinningSelectors(b *testing.B) {
	o := benchOpts()
	cfg := ohb.Config{
		Mappers: 4, Reducers: 4,
		PairsPerMapper: int(o.BytesPerWorker / 2 / 108),
		ValueBytes:     100, Seed: o.Seed,
	}
	for _, sys := range harness.Systems() {
		for _, service := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/cores=%d/service=%v", sys.Name, sys.PaperCoresPerNode, service), func(b *testing.B) {
				var basic, opt vtime.Stamp
				for i := 0; i < b.N; i++ {
					for _, backend := range []spark.Backend{spark.BackendMPIBasic, spark.BackendMPIOpt} {
						cl, err := harness.BuildCluster(harness.ClusterSpec{
							System: sys, Workers: 2, Backend: backend,
							SlotsPerWorker: 2, ShuffleService: service,
						})
						if err != nil {
							b.Fatal(err)
						}
						res, err := ohb.RunGroupByTest(cl.Ctx, cfg)
						cl.Close()
						if err != nil {
							b.Fatal(err)
						}
						if backend == spark.BackendMPIBasic {
							basic = res.Total
						} else {
							opt = res.Total
						}
					}
				}
				b.ReportMetric(float64(basic.AsDuration().Microseconds())/1000, "basic-vt-ms")
				b.ReportMetric(float64(opt.AsDuration().Microseconds())/1000, "opt-vt-ms")
				b.ReportMetric(float64(basic)/float64(opt), "basic/opt")
			})
		}
	}
}

// BenchmarkAblationHeaderPath sets the Optimized design's header-over-socket
// choice against Basic, which sends everything (headers included) over MPI.
// Basic also pays its spinning selectors, 2 of Frontera's 56 cores per
// worker node (BenchmarkAblationSpinningSelectors).
func BenchmarkAblationHeaderPath(b *testing.B) {
	o := benchOpts()
	cfg := ohb.Config{
		Mappers: 4, Reducers: 4,
		PairsPerMapper: int(o.BytesPerWorker / 2 / 108),
		ValueBytes:     100, Seed: o.Seed,
	}
	cases := []struct {
		name    string
		backend spark.Backend
	}{
		{"headers-on-socket(optimized)", spark.BackendMPIOpt},
		{"all-over-mpi(basic)", spark.BackendMPIBasic},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var total vtime.Stamp
			for i := 0; i < b.N; i++ {
				cl, err := harness.BuildCluster(harness.ClusterSpec{
					System: harness.Frontera, Workers: 2, Backend: c.backend,
					SlotsPerWorker: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := ohb.RunGroupByTest(cl.Ctx, cfg)
				cl.Close()
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(float64(total.AsDuration().Microseconds())/1000, "total-vt-ms")
		})
	}
}

// BenchmarkAblationChunkSize sweeps UCR's chunk size from its default
// config (every other UCR cost as the figures run it), showing why
// RDMA-Spark's chunked protocol trails MPI's single rendezvous per block.
func BenchmarkAblationChunkSize(b *testing.B) {
	o := benchOpts()
	cfg := ohb.Config{
		Mappers: 4, Reducers: 4,
		PairsPerMapper: int(o.BytesPerWorker / 2 / 108),
		ValueBytes:     100, Seed: o.Seed,
	}
	for _, chunk := range []int{32 << 10, 128 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("chunk=%dKiB", chunk>>10), func(b *testing.B) {
			ucrCfg := ucr.DefaultConfig()
			ucrCfg.ChunkSize = chunk
			var total vtime.Stamp
			for i := 0; i < b.N; i++ {
				cl, err := harness.BuildCluster(harness.ClusterSpec{
					System: harness.Frontera, Workers: 2, Backend: spark.BackendRDMA,
					SlotsPerWorker: 2, UCR: ucrCfg,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := ohb.RunGroupByTest(cl.Ctx, cfg)
				cl.Close()
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(float64(total.AsDuration().Microseconds())/1000, "total-vt-ms")
		})
	}
}

// BenchmarkHiBenchWorkloadsRaw measures each workload implementation on a
// fixed vanilla cluster — wall-time throughput of the simulation itself.
func BenchmarkHiBenchWorkloadsRaw(b *testing.B) {
	cl, err := harness.BuildCluster(harness.ClusterSpec{
		System: harness.Frontera, Workers: 2, Backend: spark.BackendVanilla, SlotsPerWorker: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.Run("SVM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hibench.RunSVM(cl.Ctx, hibench.MLConfig{Parts: 4, PerPart: 500, Dim: 16, Iterations: 2, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TeraSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hibench.RunTeraSort(cl.Ctx, hibench.TeraSortConfig{Parts: 4, RowsPer: 1000, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
