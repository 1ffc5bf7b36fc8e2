package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations holds BENCHMARK.json and the tables in
// this package together, and both to the contract's naming rules.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, l, d)
			}
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v declared (must be in (0, 0.25])", d.Name, l.Bound, d.Bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmoke runs every workload for one timed and one traced op and every
// probe for three calls, and checks that each declared metric comes out
// once, finite, with no failed job, and that the trace nests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	probed := values{}
	if err := runProbes(3, probed); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for name := range probed {
		if !declared[name] {
			t.Errorf("a probe emits the undeclared metric %s", name)
		}
	}

	// No seconds: the timed pass stops after its first op.
	o := options{seed: defaultSeed, setupRepeats: 1, trace: true, tracedCycles: 1}
	for _, info := range workloads {
		m, err := measure(info, o, g)
		if err != nil {
			t.Fatal(err)
		}
		m.probes = probed
		r := buildReport(m)
		if !r.Correct || r.Failed != 0 || r.Attempted != 2*numLegs {
			t.Errorf("%s: %d of %d jobs failed: %v", info.Name, r.Failed, r.Attempted, r.Failures)
		}
		check := func(kind string, defs []metricDef, got map[string]metricOut, nonZero bool) {
			if len(got) != len(defs) {
				t.Errorf("%s: %d %s metrics emitted, %d declared", info.Name, len(got), kind, len(defs))
			}
			for _, d := range defs {
				mo, ok := got[d.Name]
				if !ok {
					t.Errorf("%s: %s not emitted", info.Name, d.Name)
					continue
				}
				if math.IsNaN(mo.Value) || math.IsInf(mo.Value, 0) || (nonZero && mo.Value <= 0) {
					t.Errorf("%s: %s = %v", info.Name, d.Name, mo.Value)
				}
				if mo.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", info.Name, d.Name, mo.Unit, d.Unit)
				}
			}
		}
		check("end-to-end", endToEnd, r.EndToEnd, true) // the contract: never 0
		check("per-layer", perLayer, r.PerLayer, false)
		checkNesting(t, info.Name, m.tp.tr)
	}
}

// checkNesting asserts that every span lies inside its parent, so that an
// op's span covers its jobs and their stages.
func checkNesting(t *testing.T, workload string, tr *tracer) {
	t.Helper()
	tr.finish()
	if len(tr.spans) == 0 {
		t.Errorf("%s: the traced pass recorded no spans", workload)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("%s: span %d %s/%s: start %d end %d self %d", workload, s.ID, s.Layer, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		p := tr.spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("%s: span %d %s/%s [%d,%d] op %d is not inside its parent %s/%s [%d,%d] op %d",
				workload, s.ID, s.Layer, s.Name, s.Start, s.End, s.Op, p.Layer, p.Name, p.Start, p.End, p.Op)
		}
	}
}
