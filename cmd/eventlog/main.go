// Command eventlog replays a JSONL lifecycle event log (recorded via
// spark.Config.EventLogPath or the -eventlog flag of cmd/experiments
// -exp ohb|hibench) into the paper-style analyses: a stage timeline, the
// per-stage shuffle-wait vs. compute breakdown, and a critical-path
// summary.
//
// Usage:
//
//	eventlog run.jsonl
//	eventlog -md -summary run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
)

func main() {
	var (
		markdown = flag.Bool("md", false, "emit Markdown")
		summary  = flag.Bool("summary", false, "also print whole-log totals (events, bytes, faults)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: eventlog [-md] [-summary] <log.jsonl>")
		os.Exit(2)
	}

	events, err := obs.ReadLog(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(events) == 0 {
		fatal(fmt.Errorf("event log %s is empty", flag.Arg(0)))
	}
	report := obs.Analyze(events)

	tables := []*metrics.Table{
		report.TimelineTable(),
		report.BreakdownTable(),
		report.CriticalPathTable(),
	}
	if len(report.Batches) > 0 {
		tables = append(tables, report.BatchTable())
	}
	if *summary {
		local, remote := report.Totals()
		t := &metrics.Table{
			Title:   "Log totals",
			Columns: []string{"Metric", "Value"},
		}
		t.AddRow("events", len(report.Events))
		t.AddRow("jobs", len(report.Jobs))
		t.AddRow("shuffle bytes local", local)
		t.AddRow("shuffle bytes remote", remote)
		t.AddRow("collective ops", report.Collective)
		t.AddRow("adapted stages", report.AdaptedStages)
		t.AddRow("partitions split", report.Splits)
		t.AddRow("coalesce groups", report.Coalesces)
		t.AddRow("executors lost", report.Lost)
		t.AddRow("executors replaced", report.Replaced)
		t.AddRow("fetch failures", report.FetchFails)
		t.AddRow("service pushed bytes", report.PushedBytes)
		t.AddRow("service merged bytes", report.MergedBytes)
		t.AddRow("service served bytes", report.ServedBytes)
		if len(report.Batches) > 0 {
			var events int64
			for _, b := range report.Batches {
				events += b.Events
			}
			t.AddRow("streaming batches", len(report.Batches))
			t.AddRow("streaming events ingested", events)
		}
		tables = append(tables, t)
	}
	for _, t := range tables {
		if *markdown {
			t.WriteMarkdown(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventlog:", err)
	os.Exit(1)
}
