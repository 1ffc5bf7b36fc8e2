// Command bench is the repository's benchmark: five closed-loop workloads
// over the simulated Spark-on-MPI stack, measured on both clocks (modelled
// virtual time and the simulator's host time and allocation), with a
// separate traced pass and direct layer probes for the per-layer numbers.
// README.md in this directory defines every workload and metric.
//
//	bash bench/run.sh --workload groupby-bulk --seed 2022 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// hostFacts are recorded in every output file.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func host(seed int64) hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("BENCH_COMMIT"), Seed: seed,
	}
	if h.Commit == "" {
		h.Commit = "unknown" // run.sh sets it; go run does not
	}
	return h
}

// metricOut is one reported metric. Those taken per op carry their sample
// count and the interquartile distance of the samples as a share of the
// median; timings also the highest percentile that still has ten samples
// beyond it.
type metricOut struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	N         int     `json:"n,omitempty"`
	IQR       float64 `json:"iqr,omitempty"`
	TailPct   int     `json:"tail_pct,omitempty"`
	Tail      float64 `json:"tail,omitempty"`
	Reference float64 `json:"reference,omitempty"` // the paper's value
}

// report is the schema of bench/out/metrics-<workload>.json.
type report struct {
	Host      hostFacts            `json:"host"`
	Workload  string               `json:"workload"`
	Why       string               `json:"why"`
	Seconds   float64              `json:"seconds"`
	Ops       int                  `json:"ops"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	Failures  []string             `json:"failures,omitempty"`
	Outputs   map[string]uint64    `json:"outputs"`
	EndToEnd  map[string]metricOut `json:"end_to_end"`
	PerLayer  map[string]metricOut `json:"per_layer,omitempty"`
	Claim     *string              `json:"claim"`
}

// buildReport turns a measurement into its report.
func buildReport(m *measurement) *report {
	r := &report{
		Host: host(m.opts.seed), Workload: m.info.Name, Why: m.info.Why,
		Seconds: m.opts.seconds, Ops: len(m.timed),
		Outputs:  map[string]uint64{},
		EndToEnd: map[string]metricOut{},
	}
	for _, cycles := range [][]cycleSample{m.timed, m.traced} {
		for i := range cycles {
			for leg, s := range cycles[i].legs {
				r.Attempted++
				if cycles[i].failed[leg] {
					r.Failed++
					if len(r.Failures) < 8 {
						r.Failures = append(r.Failures, s.err.Error())
					}
				}
			}
		}
	}
	r.Correct = r.Failed == 0
	if len(m.timed) > 0 {
		for leg, s := range m.timed[0].legs {
			r.Outputs[legNames[leg]] = s.output
		}
	}

	samples := endToEndSamples(m.info.Name, m.timed)
	samples["setup_s"] = m.setups
	e2e := endToEndValues(m)
	for _, d := range endToEnd {
		mo := metricOut{Value: finite(e2e[d.Name]), Unit: d.Unit, Reference: paperReference[m.info.Name][d.Name]}
		if xs, ok := samples[d.Name]; ok {
			mo.N = len(xs)
			mo.IQR = finite(spread(xs))
			if pct, v, ok := tailPercentile(xs); ok && d.Name != "alloc_mb" && d.Name != "allocs_k" {
				mo.TailPct, mo.Tail = pct, v
			}
		}
		r.EndToEnd[d.Name] = mo
	}
	if m.opts.trace {
		r.PerLayer = map[string]metricOut{}
		vals := perLayerValues(m)
		for _, d := range perLayer {
			r.PerLayer[d.Name] = metricOut{Value: finite(vals[d.Name]), Unit: d.Unit}
		}
	}
	return r
}

// finite maps NaN and infinities (a metric with no samples) to 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// print writes every metric by name with its unit.
func (r *report) print() {
	fmt.Printf("\n== %s: %d ops, %d jobs attempted, %d failed (seed %d, %s, GOMAXPROCS %d of %d)\n",
		r.Workload, r.Ops, r.Attempted, r.Failed, r.Host.Seed, r.Host.GoVersion, r.Host.GoMaxProcs, r.Host.NProc)
	for _, f := range r.Failures {
		fmt.Printf("   failure: %s\n", f)
	}
	show := func(defs []metricDef, ms map[string]metricOut) {
		for _, d := range defs {
			mo := ms[d.Name]
			line := fmt.Sprintf("%-34s %14.4f %-7s", d.Name, mo.Value, d.Unit)
			if mo.TailPct > 0 {
				line += fmt.Sprintf(" p%d=%.4f", mo.TailPct, mo.Tail)
			}
			if mo.N > 0 {
				line += fmt.Sprintf(" n=%d iqr=%.2f%%", mo.N, 100*mo.IQR)
			}
			if mo.Reference > 0 {
				line += fmt.Sprintf(" (paper %.2f)", mo.Reference)
			}
			fmt.Println(line)
		}
	}
	show(endToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		show(perLayer, r.PerLayer)
	}
}

// write saves the report, and the trace when there is one, under dir.
func (r *report) write(dir string, m *measurement) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics-"+r.Workload+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if m.tp != nil {
		return m.tp.tr.write(filepath.Join(dir, "trace-"+r.Workload+".json"), r.Workload, r.Host)
	}
	return nil
}

// lastLine prints the one JSON object the benchmark contract asks for: the
// per-layer metrics of a traced run, else the end-to-end metrics.
func (r *report) lastLine() error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	shown := r.EndToEnd
	if r.PerLayer != nil {
		shown = r.PerLayer
	}
	metrics := map[string]valueUnit{}
	for name, mo := range shown {
		metrics[name] = valueUnit{mo.Value, mo.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outDir is bench/out whether the command runs from the repository root
// (run.sh) or from this directory (go run .).
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func selected(name string) ([]workloadInfo, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.Name == name {
			return []workloadInfo{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// selfcheck runs the whole timed measurement twice per workload and
// compares the two sets of end-to-end values against the bounds.
func selfcheck(infos []workloadInfo, o options, g golden) (ok bool, err error) {
	ok = true
	for _, info := range infos {
		var runs [2]values
		for i := range runs {
			m, err := measure(info, o, g)
			if err != nil {
				return false, err
			}
			runs[i] = endToEndValues(m)
		}
		fmt.Printf("\n== selfcheck %s\n%-22s %14s %14s %9s %7s\n", info.Name, "metric", "first", "second", "diff", "bound")
		for _, d := range endToEnd {
			a, b := runs[0][d.Name], runs[1][d.Name]
			diff := math.Abs(b-a) / a
			verdict := ""
			if !(diff <= d.Bound) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-22s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	// The host has two cores; pin the count so that results do not change
	// with the machine the benchmark lands on.
	runtime.GOMAXPROCS(2)

	var o options
	workload := flag.String("workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds one workload measures for")
	trace := flag.Int("trace", 0, "1: also run the traced pass and the layer probes, and end with the per-layer metrics")
	probesOnly := flag.Bool("probes", false, "run the layer probes alone")
	check := flag.Bool("selfcheck", false, "run the timed measurement twice and compare against the bounds")
	flag.Parse()
	o.trace = *trace == 1
	o.warmups, o.setupRepeats, o.tracedCycles = 2, 3, 5

	if err := run(*workload, o, *probesOnly, *check); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// probeCalls is how many timed calls a layer probe makes (costly ones
// make fewer, the 64 B Asks ten times as many).
const probeCalls = 200

func run(workload string, o options, probesOnly, check bool) error {
	// The probes do not depend on the workload: one round serves them all.
	var probed values
	if probesOnly || o.trace {
		probed = values{}
		if err := runProbes(probeCalls, probed); err != nil {
			return err
		}
	}
	if probesOnly {
		for _, d := range perLayer {
			if v, ok := probed[d.Name]; ok {
				fmt.Printf("%-34s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		return nil
	}
	infos, err := selected(workload)
	if err != nil {
		return err
	}
	g, err := loadGolden()
	if err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if check {
		ok, err := selfcheck(infos, o, g)
		if err == nil && !ok {
			err = fmt.Errorf("selfcheck: two runs of the same code differ by more than a bound")
		}
		return err
	}
	var reports []*report
	for _, info := range infos {
		m, err := measure(info, o, g)
		if err != nil {
			return err
		}
		m.probes = probed
		r := buildReport(m)
		r.print()
		if err := r.write(outDir(), m); err != nil {
			return err
		}
		reports = append(reports, r)
	}
	fmt.Println()
	for _, r := range reports {
		if err := r.lastLine(); err != nil {
			return err
		}
	}
	return nil
}
