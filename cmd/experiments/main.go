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

// command is one invocation: the experiment to run, its Options and Args,
// and what to print.
type command struct {
	exp, backend, system, sizes, workerCounts string
	o                                         harness.Options
	a                                         harness.Args
	markdown, listSystems, counters           bool
}

// flags defines every flag on a new FlagSet, each writing into c. The
// Options flags default to harness.DefaultOptions().
func flags(c *command) *flag.FlagSet {
	var figures, oneRuns []string
	for _, e := range harness.Experiments {
		if e.OneRun {
			oneRuns = append(oneRuns, e.Name)
		} else {
			figures = append(figures, e.Name)
		}
	}
	c.o = harness.DefaultOptions()
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&c.exp, "exp", "all", fmt.Sprintf("experiment: %s|all, or one run: %s", strings.Join(figures, "|"), strings.Join(oneRuns, "|")))
	fs.StringVar(&c.a.EventLogDir, "eventlog-dir", "", "chaos/skew/netchaos/streaming: also record one JSONL event log per run in this directory")
	fs.StringVar(&c.a.EventLog, "eventlog", "", "ohb/hibench: record the run's lifecycle events as JSONL at this path (replay with cmd/eventlog)")
	fs.StringVar(&c.a.Bench, "bench", "GroupBy", "OHB benchmark: GroupBy|SortBy (fig10/fig11/ohb), Bcast|Allreduce (ohb)")
	fs.StringVar(&c.a.Workload, "workload", "LDA", "hibench: LDA|SVM|LR|GMM|Repartition|TeraSort|NWeight")
	fs.StringVar(&c.backend, "backend", "mpi", "ohb/hibench: vanilla|rdma|mpi-basic|mpi (or the names the tables print)")
	fs.StringVar(&c.system, "system", "Frontera", "ohb/hibench: Frontera|Stampede2|InternalCluster")
	fs.IntVar(&c.a.Iters, "iters", 10, "ohb Bcast/Allreduce: timed iterations per size")
	fs.StringVar(&c.sizes, "sizes", "", "fig8: comma-separated message sizes in bytes (default: the paper's sweep)")
	fs.IntVar(&c.o.Workers, "workers", c.o.Workers, "worker count (fig9/fig12/ohb/hibench)")
	fs.StringVar(&c.workerCounts, "worker-counts", joinInts(c.o.WorkerCounts), "scaling sweep worker counts (fig10/fig11)")
	fs.Int64Var(&c.o.BytesPerWorker, "bytes-per-worker", c.o.BytesPerWorker, "weak-scaling data per worker (bytes)")
	fs.Int64Var(&c.o.TotalBytes, "total-bytes", c.o.TotalBytes, "strong-scaling fixed data volume (bytes)")
	fs.IntVar(&c.o.SlotsPerWorker, "slots", c.o.SlotsPerWorker, "task slots per worker")
	fs.IntVar(&c.o.ValueBytes, "value-bytes", c.o.ValueBytes, "OHB record payload size")
	fs.Int64Var(&c.o.Seed, "seed", c.o.Seed, "deterministic data seed")
	fs.BoolVar(&c.markdown, "md", false, "emit Markdown instead of aligned text")
	fs.BoolVar(&c.listSystems, "list-systems", false, "print the Table III system profiles and exit")
	fs.BoolVar(&c.counters, "counters", false, "print per-run counter deltas after each experiment")
	return fs
}

func main() {
	var c command
	_ = flags(&c).Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag

	if c.listSystems {
		t := &metrics.Table{
			Title:   "Table III: system profiles",
			Columns: []string{"System", "PaperCores/Node", "ScaledSlots", "Fabric", "RDMA-Spark"},
		}
		for _, s := range harness.Systems() {
			t.AddRow(s.Name, s.PaperCoresPerNode, s.SlotsPerWorker, s.NewModel().Name, s.SupportsRDMA)
		}
		emit(t, c.markdown)
		return
	}

	c.o.WorkerCounts = intList("-worker-counts", c.workerCounts, 1)
	c.a.Sizes = intList("-sizes", c.sizes, 0)
	var err error
	c.a.Backend, err = spark.ParseBackend(c.backend)
	check(err)
	c.a.System, err = harness.SystemByName(c.system)
	check(err)

	ran := false
	for _, e := range harness.Experiments {
		if c.exp != e.Name && (c.exp != "all" || e.OneRun) {
			continue
		}
		if c.exp == "all" {
			fmt.Fprintf(os.Stderr, "running %s...\n", e.Name)
		}
		// Counters are process-global and accumulate across experiments in
		// one invocation; snapshot so each run reports only its own deltas.
		snap := metrics.Snapshot()
		t, err := e.Run(c.o, c.a)
		if t != nil {
			// Before the error: the table shows the cell an error is about.
			emit(t, c.markdown)
		}
		check(err)
		if c.counters {
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
			emit(t, c.markdown)
		}
		ran = true
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", c.exp))
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

// joinInts is intList's inverse.
func joinInts(ns []int) string {
	s := make([]string, len(ns))
	for i, n := range ns {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
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
