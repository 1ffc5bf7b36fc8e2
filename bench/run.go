package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

const defaultSeed = 2022

//go:embed golden.json
var goldenJSON []byte

// golden holds, for the default seed, the output every backend's job must
// produce per workload (for stream-microbatch the 32-batch checksum).
type golden struct {
	Seed    int64                        `json:"seed"`
	Outputs map[string]map[string]uint64 `json:"outputs"` // workload -> leg -> output
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// options sizes one run of one workload.
type options struct {
	seed         int64
	seconds      float64 // length of the timed pass; it runs at least one op
	warmups      int     // discarded ops per set-up
	setupRepeats int     // set-ups per run; setup_s is their median
	trace        bool    // also run the traced pass
	tracedCycles int
}

// cycleSample is one op: a leg per backend, and which of them failed.
type cycleSample struct {
	legs   [numLegs]legSample
	failed [numLegs]bool
}

func (c *cycleSample) anyFailed() bool {
	for _, f := range c.failed {
		if f {
			return true
		}
	}
	return false
}

// tracePass is the state of the traced pass: the span recorder and what
// was collected around every leg of every op.
type tracePass struct {
	tr   *tracer
	legs [][numLegs]*legTrace
}

// runCycle runs one op: every leg in the fixed order, one at a time. want
// is the golden output per leg, or nil for a seed that has none, where the
// legs must agree with each other. A failed leg is recorded, never fatal.
func runCycle(w workload, op int, tp *tracePass, want map[string]uint64) cycleSample {
	var c cycleSample
	var tr *tracer
	var lts [numLegs]*legTrace
	if tp != nil {
		tr = tp.tr
		for i := range lts {
			lts[i] = &legTrace{}
		}
		tp.legs = append(tp.legs, lts)
	}
	opSpan := tr.begin(0, op, "driver", "op")
	for leg := 0; leg < numLegs; leg++ {
		c.legs[leg] = w.leg(leg, op, lts[leg], tr, opSpan)
	}
	tr.end(opSpan)

	ref, haveRef := majorityOutput(&c)
	for leg := range c.legs {
		s := &c.legs[leg]
		switch {
		case s.err != nil:
			c.failed[leg] = true
		case want != nil:
			if s.output != want[legNames[leg]] {
				s.err = fmt.Errorf("%s: output %d differs from golden %d", legNames[leg], s.output, want[legNames[leg]])
				c.failed[leg] = true
			}
		case haveRef && s.output != ref:
			s.err = fmt.Errorf("%s: output %d differs from the other backends' %d", legNames[leg], s.output, ref)
			c.failed[leg] = true
		}
	}
	return c
}

// majorityOutput returns the output most legs without an error produced.
func majorityOutput(c *cycleSample) (out uint64, ok bool) {
	counts := map[uint64]int{}
	best := 0
	for leg := range c.legs {
		if c.legs[leg].err != nil {
			continue
		}
		o := c.legs[leg].output
		counts[o]++
		if counts[o] > best {
			best, out, ok = counts[o], o, true
		}
	}
	return out, ok
}

// setUp performs the workload's set-up o.setupRepeats times (configuration
// from the seed, pre-builds, warm-up ops) and returns each repeat's
// duration in seconds. The last set-up stays in place for the passes.
func setUp(w workload, o options, want map[string]uint64) ([]float64, error) {
	var secs []float64
	for r := 0; r < o.setupRepeats; r++ {
		if r > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return nil, err
		}
		for i := 0; i < o.warmups; i++ {
			runCycle(w, -1-i, nil, want)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// pass runs ops back to back (a closed loop with one op in flight) for
// o.seconds, or exactly n of them when n > 0.
func pass(w workload, o options, n int, tp *tracePass, want map[string]uint64) []cycleSample {
	var cycles []cycleSample
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for op := 0; ; op++ {
		if n > 0 && op >= n {
			break
		}
		if n <= 0 && op > 0 && !time.Now().Before(deadline) {
			break
		}
		cycles = append(cycles, runCycle(w, op, tp, want))
	}
	return cycles
}

// measurement is everything one run of one workload produced.
type measurement struct {
	info     workloadInfo
	opts     options
	setups   []float64
	timed    []cycleSample
	traced   []cycleSample
	tp       *tracePass
	probes   values
	gcCycles uint32
	sysBytes uint64
}

// measure sets the workload up, runs the timed pass with nothing attached
// to the program and, when tracing, the traced pass. The layer probes do
// not depend on the workload; the caller runs them into m.probes.
func measure(info workloadInfo, o options, g golden) (*measurement, error) {
	var want map[string]uint64
	if o.seed == g.Seed {
		want = g.Outputs[info.Name]
	}
	w := info.make()
	m := &measurement{info: info, opts: o}
	var err error
	if m.setups, err = setUp(w, o, want); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", info.Name, err)
	}
	defer w.teardown()

	timedOpts := o
	if o.trace {
		// One run has one budget: the traced pass and the probes take the
		// other half.
		timedOpts.seconds = o.seconds / 2
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m.timed = pass(w, timedOpts, 0, nil, want)
	runtime.ReadMemStats(&m1)
	m.gcCycles, m.sysBytes = m1.NumGC-m0.NumGC, m1.Sys

	if o.trace {
		m.tp = &tracePass{tr: newTracer()}
		m.traced = pass(w, o, o.tracedCycles, m.tp, want)
	}
	return m, nil
}
