// Command experiments regenerates every figure and table of the paper's
// evaluation (Figures 8-12 plus the §VII headline numbers) on the simulated
// cluster and prints them as text or Markdown. It also runs any single
// point of them: one OHB benchmark or one HiBench workload on one system
// and backend, built by the same derivation as the figure it belongs to.
// The experiments are harness.Experiments; -h lists their names.
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
	var figures, oneRuns []string
	for _, e := range harness.Experiments {
		if e.OneRun {
			oneRuns = append(oneRuns, e.Name)
		} else {
			figures = append(figures, e.Name)
		}
	}
	var (
		exp            = flag.String("exp", "all", fmt.Sprintf("experiment: %s|all, or one run: %s", strings.Join(figures, "|"), strings.Join(oneRuns, "|")))
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
	a := harness.Args{
		Sizes:       intList("-sizes", *sizes, 0),
		Bench:       *bench,
		Workload:    *workload,
		System:      system,
		Backend:     backend,
		Iters:       *iters,
		EventLog:    *eventLog,
		EventLogDir: *eventLogDir,
	}

	ran := false
	for _, e := range harness.Experiments {
		if *exp != e.Name && (*exp != "all" || e.OneRun) {
			continue
		}
		if *exp == "all" {
			fmt.Fprintf(os.Stderr, "running %s...\n", e.Name)
		}
		// Counters are process-global and accumulate across experiments in
		// one invocation; snapshot so each run reports only its own deltas.
		snap := metrics.Snapshot()
		t, err := e.Run(o, a)
		if t != nil {
			// Before the error: the table shows the cell an error is about.
			emit(t, *markdown)
		}
		check(err)
		if *showCounters {
			deltas := snap.Delta()
			names := make([]string, 0, len(deltas))
			for n := range deltas {
				names = append(names, n)
			}
			sort.Strings(names)
			t := &metrics.Table{Title: "Counter deltas: " + e.Name, Columns: []string{"Counter", "Delta"}}
			for _, n := range names {
				t.AddRow(n, deltas[n])
			}
			emit(t, *markdown)
		}
		ran = true
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
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
