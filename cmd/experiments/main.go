// Command experiments regenerates every figure and table of the paper's
// evaluation (Figures 8-12 plus the §VII headline numbers) on the simulated
// cluster and prints them as text or Markdown. It also runs any single
// point of them: one OHB benchmark or one HiBench workload on one system
// and backend, built by the same derivation as the figure it belongs to.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig10 -bench GroupBy -worker-counts 2,4,8 -bytes-per-worker 8388608
//	experiments -exp headline -md
//	experiments -exp fig8 -sizes 4,1024,65536,4194304
//	experiments -exp scale -md
//	experiments -exp ohb -bench GroupBy -backend mpi -workers 8 -eventlog run.jsonl
//	experiments -exp ohb -bench Allreduce -backend mpi-basic -iters 20
//	experiments -exp hibench -workload LR -backend rdma -system Frontera
//	experiments -list-systems
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"mpi4spark/internal/harness"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
)

func main() {
	var (
		exp            = flag.String("exp", "all", "experiment: fig8|fig9|fig10|fig11|fig12|fig12c|headline|chaos|skew|scale|netchaos|streaming|all, or one run: ohb|hibench")
		eventLogDir    = flag.String("eventlog-dir", "", "chaos/skew/netchaos/streaming: also record one JSONL event log per run in this directory")
		eventLog       = flag.String("eventlog", "", "ohb/hibench: record the run's lifecycle events as JSONL at this path (replay with cmd/eventlog)")
		bench          = flag.String("bench", "GroupBy", "OHB benchmark: GroupBy|SortBy (fig10/fig11/ohb), Bcast|Allreduce (ohb)")
		workload       = flag.String("workload", "LDA", "hibench: LDA|SVM|LR|GMM|Repartition|TeraSort|NWeight")
		backendName    = flag.String("backend", "mpi", "ohb/hibench: vanilla|rdma|mpi-basic|mpi (or the names the tables print)")
		systemName     = flag.String("system", "Frontera", "ohb/hibench: Frontera|Stampede2|InternalCluster")
		iters          = flag.Int("iters", 10, "ohb Bcast/Allreduce: timed iterations per size")
		sizes          = flag.String("sizes", "", "fig8: comma-separated message sizes in bytes (default: the paper's sweep)")
		workers        = flag.Int("workers", 4, "worker count (fig9/fig12/ohb/hibench)")
		workerCounts   = flag.String("worker-counts", "2,4,8", "scaling sweep worker counts (fig10/fig11)")
		bytesPerWorker = flag.Int64("bytes-per-worker", 8<<20, "weak-scaling data per worker (bytes)")
		totalBytes     = flag.Int64("total-bytes", 32<<20, "strong-scaling fixed data volume (bytes)")
		slots          = flag.Int("slots", 2, "task slots per worker")
		valueBytes     = flag.Int("value-bytes", 100, "OHB record payload size")
		seed           = flag.Int64("seed", 2022, "deterministic data seed")
		markdown       = flag.Bool("md", false, "emit Markdown instead of aligned text")
		listSystems    = flag.Bool("list-systems", false, "print the Table III system profiles and exit")
		showCounters   = flag.Bool("counters", false, "print per-run counter deltas after each experiment")
	)
	flag.Parse()

	if *listSystems {
		t := &metrics.Table{
			Title:   "Table III: system profiles",
			Columns: []string{"System", "PaperCores/Node", "ScaledSlots", "Fabric", "RDMA-Spark"},
		}
		for _, s := range harness.Systems() {
			t.AddRow(s.Name, s.PaperCoresPerNode, s.SlotsPerWorker, s.NewModel().Name, s.SupportsRDMA)
		}
		emit(t, *markdown)
		return
	}

	o := harness.Options{
		Workers:        *workers,
		WorkerCounts:   intList("-worker-counts", *workerCounts, 1),
		BytesPerWorker: *bytesPerWorker,
		TotalBytes:     *totalBytes,
		ValueBytes:     *valueBytes,
		SlotsPerWorker: *slots,
		Seed:           *seed,
	}
	backend, err := spark.ParseBackend(*backendName)
	check(err)
	system, err := harness.SystemByName(*systemName)
	check(err)

	run := func(name string) {
		// Counters are process-global and accumulate across experiments in
		// one invocation; snapshot so each run reports only its own deltas.
		snap := metrics.Snapshot()
		defer func() {
			if *showCounters {
				emitCounterDeltas(name, snap.Delta(), *markdown)
			}
		}()
		switch name {
		case "fig8":
			_, t, err := harness.RunFig8(intList("-sizes", *sizes, 0))
			check(err)
			emit(t, *markdown)
		case "fig9":
			t, err := harness.RunFig9(o)
			check(err)
			emit(t, *markdown)
		case "fig10":
			_, t, err := harness.RunFig10(o, *bench)
			check(err)
			emit(t, *markdown)
		case "fig11":
			_, t, err := harness.RunFig11(o, *bench)
			check(err)
			emit(t, *markdown)
		case "fig12":
			_, t, err := harness.RunFig12(o, harness.Frontera,
				[]string{"LDA", "SVM", "GMM", "Repartition", "NWeight", "TeraSort"})
			check(err)
			emit(t, *markdown)
		case "fig12c":
			_, t, err := harness.RunFig12(o, harness.Stampede2,
				[]string{"LR", "GMM", "SVM", "Repartition"})
			check(err)
			emit(t, *markdown)
		case "headline":
			_, t, err := harness.RunHeadline(o)
			check(err)
			emit(t, *markdown)
		case "chaos":
			_, t, err := harness.RunChaosKillTable(o, *eventLogDir)
			check(err)
			emit(t, *markdown)
		case "skew":
			_, t, err := harness.RunSkewTable(o, *eventLogDir)
			check(err)
			emit(t, *markdown)
		case "scale":
			// The table first: it shows the cell an error is about.
			_, t, err := harness.RunScale(o)
			emit(t, *markdown)
			check(err)
		case "netchaos":
			_, t, err := harness.RunNetChaosTable(o, *eventLogDir)
			check(err)
			emit(t, *markdown)
		case "streaming":
			_, t, err := harness.RunStreamingTable(o, *eventLogDir)
			check(err)
			emit(t, *markdown)
		case "ohb":
			var t *metrics.Table
			var err error
			if *bench == "Bcast" || *bench == "Allreduce" {
				t, err = harness.RunOSU(o, system, backend, *bench, *iters, *eventLog)
			} else {
				_, t, err = harness.RunOHB(o, system, backend, *bench, *eventLog)
			}
			check(err)
			emit(t, *markdown)
		case "hibench":
			t, err := harness.RunHiBench(o, system, backend, *workload, *eventLog)
			check(err)
			emit(t, *markdown)
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *exp == "all" {
		for _, name := range []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig12c", "headline"} {
			fmt.Fprintf(os.Stderr, "running %s...\n", name)
			run(name)
		}
		return
	}
	run(*exp)
}

// intList parses a comma-separated list of integers >= min; an empty list
// is nil (the experiment's default).
func intList(flagName, list string, min int) []int {
	if list == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			fatal(fmt.Errorf("bad %s entry %q", flagName, part))
		}
		out = append(out, n)
	}
	return out
}

func emitCounterDeltas(name string, deltas map[string]int64, markdown bool) {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Counter deltas: %s", name),
		Columns: []string{"Counter", "Delta"},
	}
	names := make([]string, 0, len(deltas))
	for n := range deltas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.AddRow(n, deltas[n])
	}
	emit(t, markdown)
}

func emit(t *metrics.Table, markdown bool) {
	if markdown {
		t.WriteMarkdown(os.Stdout)
	} else {
		t.WriteText(os.Stdout)
	}
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
