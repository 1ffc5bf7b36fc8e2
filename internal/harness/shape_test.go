package harness

import (
	"reflect"
	"strings"
	"testing"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
)

// TestExperimentTableShapes pins what the chaos and skew tables and the
// single -exp ohb (GroupBy, Bcast, Allreduce) and -exp hibench runs render
// at a small scale: each table's title, its columns, its row labels (the
// leading cells that name a row: backend x mode, size or stage) and its
// notes. Every pinned value is a name or a deterministic output (a group
// count, a workload metric); none is a virtual-time stamp.
func TestExperimentTableShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale experiment")
	}
	run := func(name string, a Args) (*metrics.Table, error) {
		for _, e := range Experiments {
			if e.Name == name {
				return e.Run(Options{BytesPerWorker: 256 << 10}, a)
			}
		}
		t.Fatalf("no experiment %q", name)
		return nil, nil
	}
	backendModes := func(modes ...string) [][]string {
		var labels [][]string
		for _, b := range []string{"IPoIB", "RDMA", "MPI-Basic", "MPI"} {
			for _, m := range modes {
				labels = append(labels, []string{b, m})
			}
		}
		return labels
	}
	var sizes [][]string
	for _, s := range []string{"4", "16", "64", "256", "1024", "4096", "16384", "65536", "262144", "1048576", "4194304"} {
		sizes = append(sizes, []string{s})
	}
	// osu_allreduce starts at one float64.
	floatSizes := append([][]string{{"8"}}, sizes[1:]...)
	for _, tc := range []struct {
		name    string
		run     func() (*metrics.Table, error)
		title   string
		columns []string
		labels  [][]string // the first len(labels[0]) cells of each row
		notes   []string
	}{
		{
			name: "chaos",
			run: func() (*metrics.Table, error) {
				return run("chaos", Args{})
			},
			title:   "Chaos kill: executor death mid-reduce, recovery cost (virtual time)",
			columns: []string{"Backend", "Service", "Baseline", "Recovery", "Overhead%", "MapResubmits", "FetchFails"},
			labels:  backendModes("off", "on"),
			notes: []string{
				"service off: map outputs die with the executor -> FetchFailed + map-stage resubmission",
				"service on: outputs survive on per-worker services -> reduce-only retry, zero resubmissions",
			},
		},
		{
			name: "skew",
			run: func() (*metrics.Table, error) {
				return run("skew", Args{})
			},
			title:   "Skewed GroupBy (hot key = 50% of data): adaptive execution off vs on",
			columns: []string{"Backend", "Adaptive", "ReduceStage", "E2E", "Splits", "Coalesces", "SpecLaunched", "ReduceSpeedup"},
			labels:  backendModes("off", "on"),
			notes: []string{
				"identical group checksums across all runs (bit-identical results)",
				"speedup = reduce-stage duration off / on, per backend",
			},
		},
		{
			name: "ohb GroupBy",
			run: func() (*metrics.Table, error) {
				return run("ohb", Args{System: Frontera, Backend: spark.BackendMPIOpt, Bench: "GroupBy"})
			},
			title:   "OHB GroupByTest: Frontera, 4 workers x 2 slots, MPI backend",
			columns: []string{"Stage", "Duration", "Tasks", "Records", "ShuffleBytes"},
			labels:  [][]string{{"Job0-ResultStage"}, {"Job1-ShuffleMapStage"}, {"Job1-ResultStage"}, {"TOTAL"}},
			notes:   []string{"action output: 2384"},
		},
		{
			name: "ohb Bcast",
			run: func() (*metrics.Table, error) {
				return run("ohb", Args{System: Frontera, Backend: spark.BackendMPIOpt, Bench: "Bcast", Iters: 1})
			},
			title:   "OSU osu_bcast: Frontera, 4 workers x 2 slots, MPI backend",
			columns: []string{"Size", "Latency"},
			labels:  sizes,
		},
		{
			name: "ohb Allreduce",
			run: func() (*metrics.Table, error) {
				return run("ohb", Args{System: Frontera, Backend: spark.BackendMPIBasic, Bench: "Allreduce", Iters: 1})
			},
			title:   "OSU osu_allreduce: Frontera, 4 workers x 2 slots, MPI-Basic backend",
			columns: []string{"Size", "Latency"},
			labels:  floatSizes,
		},
		{
			name: "hibench",
			run: func() (*metrics.Table, error) {
				return run("hibench", Args{System: Frontera, Backend: spark.BackendRDMA, Workload: "LR"})
			},
			title:   "HiBench LR: Frontera, 4 workers x 2 slots, RDMA backend",
			columns: []string{"Stage", "Duration", "ShuffleBytes"},
			labels:  [][]string{{"Job0-ShuffleMapStage"}, {"Job0-ResultStage"}, {"Job1-ResultStage"}, {"Job2-ResultStage"}, {"Job3-ResultStage"}, {"TOTAL"}},
			notes:   []string{"workload metric: 0.41439526710031843"},
		},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			tb, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if tb.Title != tc.title {
				t.Errorf("title %q, want %q", tb.Title, tc.title)
			}
			if !reflect.DeepEqual(tb.Columns, tc.columns) {
				t.Errorf("columns %q, want %q", tb.Columns, tc.columns)
			}
			var labels [][]string
			for _, r := range tb.Rows {
				labels = append(labels, r[:len(tc.labels[0])])
			}
			if !reflect.DeepEqual(labels, tc.labels) {
				t.Errorf("row labels %q, want %q", labels, tc.labels)
			}
			if !reflect.DeepEqual(tb.Notes, tc.notes) {
				t.Errorf("notes %q, want %q", tb.Notes, tc.notes)
			}
		})
	}
}
