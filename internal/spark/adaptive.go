package spark

import (
	"sort"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// Adaptive-execution and speculation counters. Each reconciles exactly
// with the event stream: splits/coalesces sum the StageAdapted events'
// fields, launched counts TaskSpeculated events, won counts those with
// Won set, and lost is launched minus won.
const (
	CounterAdaptiveSplits    = "scheduler.adaptive.splits"
	CounterAdaptiveCoalesces = "scheduler.adaptive.coalesces"
	CounterSpecLaunched      = "scheduler.speculation.launched"
	CounterSpecWon           = "scheduler.speculation.won"
	CounterSpecLost          = "scheduler.speculation.lost"
)

// physTask is one physical task of an adapted result stage. The planner
// rewrites the stage's logical partition list into these: a plain task
// covers one partition whole, a ranged task covers the [mapLo, mapHi)
// map-id slice of one oversized partition, and a coalesced task computes
// several runt partitions back to back.
type physTask struct {
	parts            []int // original partitions covered (len > 1 = coalesced)
	ranged           bool
	mapLo, mapHi     int
	subIdx, subCount int // position among the partition's sub-tasks when ranged
}

// adaptivePlan is the planner's rewrite of one result stage.
type adaptivePlan struct {
	shuffleID int
	tasks     []physTask
	splits    int // partitions split into sub-tasks
	coalesces int // coalesce groups formed
}

// planResultStage consults the map-output tracker's per-reducer byte sizes
// and decides whether the result stage over final warrants rewriting. It
// returns nil when adaptive execution is off, the stage shape does not
// qualify (every dependency must be a shuffle at matching width — narrow-
// transformed children run unadapted), or the sizes are so uniform the
// identity plan is best. Splitting additionally requires exactly one
// shuffle dependency and the RDD's partial-merge hook; multi-shuffle
// stages (joins) are eligible for coalescing only, sized by the summed
// per-reducer bytes of all their shuffles.
func (c *Context) planResultStage(final rddBase) *adaptivePlan {
	if !c.cfg.AdaptiveExecution {
		return nil
	}
	deps := final.dependencies()
	if len(deps) == 0 {
		return nil
	}
	sdeps := make([]*ShuffleDep, 0, len(deps))
	for _, d := range deps {
		dep, ok := d.(*ShuffleDep)
		if !ok || dep.numReduce != final.partitions() {
			return nil
		}
		sdeps = append(sdeps, dep)
	}
	totals := make([]int64, final.partitions())
	var perMap [][]int64
	splitShuffle := 0
	for _, dep := range sdeps {
		t, pm, err := c.tracker.SizesByReduce(dep.shuffleID)
		if err != nil || len(t) != len(totals) {
			return nil
		}
		for i, v := range t {
			totals[i] += v
		}
		perMap, splitShuffle = pm, dep.shuffleID
	}
	sorted := append([]int64(nil), totals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	med := sorted[len(sorted)/2]

	target := c.cfg.AdaptiveTargetBytes
	canSplit := final.canSplit() && len(sdeps) == 1

	var tasks []physTask
	splits, coalesces := 0, 0
	var pend []int // pending coalesce group
	var pendBytes int64
	flush := func() {
		if len(pend) == 0 {
			return
		}
		if len(pend) > 1 {
			coalesces++
		}
		tasks = append(tasks, physTask{parts: pend})
		pend, pendBytes = nil, 0
	}
	for r := 0; r < len(totals); r++ {
		b := totals[r]
		if canSplit && float64(b) > DefaultAdaptiveSkewThreshold*float64(med) && b >= 2*target {
			flush()
			cuts := splitCuts(perMap[r], target)
			if nSub := len(cuts) - 1; nSub > 1 {
				splits++
				for s := 0; s < nSub; s++ {
					tasks = append(tasks, physTask{
						parts: []int{r}, ranged: true,
						mapLo: cuts[s], mapHi: cuts[s+1],
						subIdx: s, subCount: nSub,
					})
				}
				continue
			}
			// Uncuttable (one map holds everything): run unsplit.
			tasks = append(tasks, physTask{parts: []int{r}})
			continue
		}
		if b < target {
			// Runt: coalesce with its neighbors until the group would
			// pass the target.
			if len(pend) > 0 && pendBytes+b > target {
				flush()
			}
			pend = append(pend, r)
			pendBytes += b
			continue
		}
		flush()
		tasks = append(tasks, physTask{parts: []int{r}})
	}
	flush()
	if splits == 0 && coalesces == 0 {
		return nil
	}
	return &adaptivePlan{shuffleID: splitShuffle, tasks: tasks, splits: splits, coalesces: coalesces}
}

// splitCuts chooses map-id cut points for one oversized partition, greedily
// byte-balanced toward ceil(total/target) sub-ranges. The result always
// starts at 0 and ends at len(sizes); consecutive entries delimit one
// sub-task's [lo, hi). At most one cut lands per map id, so cuts are
// strictly increasing and a dominant single map simply yields fewer subs.
func splitCuts(sizes []int64, target int64) []int {
	var total int64
	nz := 0
	for _, s := range sizes {
		total += s
		if s > 0 {
			nz++
		}
	}
	n := int(total / target)
	if n < 2 {
		n = 2
	}
	if n > nz {
		n = nz
	}
	if n < 2 {
		return []int{0, len(sizes)}
	}
	cuts := []int{0}
	per := float64(total) / float64(n)
	var acc int64
	next := 1
	for m := 0; m < len(sizes); m++ {
		acc += sizes[m]
		if next < n && float64(acc) >= per*float64(next) && m+1 < len(sizes) {
			cuts = append(cuts, m+1)
			next++
		}
	}
	return append(cuts, len(sizes))
}

// coalescedResult carries a coalesced task's per-partition results back to
// the driver in covered-partition order.
type coalescedResult struct {
	parts   []int
	results []any
}

// runAdaptedResultStage executes a result stage under an adaptive plan:
// build one task per physical plan entry, run the stage, then reassemble —
// collecting plain results directly, unpacking coalesced bundles, and
// merging ranged sub-results through the RDD's partial-merge hook (charged
// on the driver at the latest sub-task's completion time).
func (c *Context) runAdaptedResultStage(jobID int, stage *stageInfo, final rddBase, plan *adaptivePlan, resultSize func(any) int, collect func(part int, res any)) error {
	metrics.GetCounter(CounterAdaptiveSplits).Add(int64(plan.splits))
	metrics.GetCounter(CounterAdaptiveCoalesces).Add(int64(plan.coalesces))
	c.bus.Emit(obs.Event{
		Type: obs.EvStageAdapted, VT: c.Clock(), Job: jobID,
		Stage: stage.id, StageName: stage.name, StageKind: stage.kind,
		ShuffleID: plan.shuffleID,
		Splits:    plan.splits, Coalesces: plan.coalesces, Tasks: len(plan.tasks),
	})

	tasks := make([]*taskDescriptor, len(plan.tasks))
	for i := range plan.tasks {
		pt := plan.tasks[i]
		t := &taskDescriptor{
			stage:     stage,
			part:      pt.parts[0],
			preferred: c.preferredExecutor(final, pt.parts[0]),
		}
		switch {
		case pt.ranged:
			t.ranged = true
			t.mapLo, t.mapHi = pt.mapLo, pt.mapHi
			t.rangedShuffle = plan.shuffleID
			t.resultSize = resultSize
			t.run = func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
				data, err := final.computePartition(pt.parts[0], tc)
				return data, nil, err
			}
		case len(pt.parts) > 1:
			t.coalesced = len(pt.parts)
			t.resultSize = func(res any) int {
				cr, ok := res.(*coalescedResult)
				if !ok {
					return 16
				}
				n := 0
				for _, r := range cr.results {
					n += resultSize(r)
				}
				return n
			}
			t.run = func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
				cr := &coalescedResult{parts: pt.parts}
				for _, p := range pt.parts {
					data, err := final.computePartition(p, tc)
					if err != nil {
						return nil, nil, err
					}
					cr.results = append(cr.results, data)
				}
				return cr, nil, nil
			}
		default:
			t.resultSize = resultSize
			t.run = func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
				data, err := final.computePartition(pt.parts[0], tc)
				return data, nil, err
			}
		}
		tasks[i] = t
	}

	comps, err := c.launchAndWait(stage, tasks)
	if err != nil {
		return err
	}

	// Reassemble. comps is index-aligned with tasks (and so with
	// plan.tasks) regardless of completion order or speculation.
	subResults := make(map[int][]any)
	subVT := make(map[int]vtime.Stamp)
	for i, comp := range comps {
		pt := plan.tasks[i]
		switch {
		case pt.ranged:
			part := pt.parts[0]
			if subResults[part] == nil {
				subResults[part] = make([]any, pt.subCount)
			}
			subResults[part][pt.subIdx] = comp.result
			subVT[part] = vtime.Max(subVT[part], comp.driverVT)
		case len(pt.parts) > 1:
			cr := comp.result.(*coalescedResult)
			for j, p := range pt.parts {
				collect(p, cr.results[j])
			}
		default:
			collect(pt.parts[0], comp.result)
		}
	}
	// Merge split partitions in partition order so the driver-side merge
	// cost accrues deterministically.
	splitParts := make([]int, 0, len(subResults))
	for part := range subResults {
		splitParts = append(splitParts, part)
	}
	sort.Ints(splitParts)
	for _, part := range splitParts {
		tc := &TaskContext{StageID: stage.id, Partition: part, vt: subVT[part], cpu: c.cfg.CPU}
		merged := final.mergePartials(tc, subResults[part])
		c.AdvanceClock(tc.vt)
		collect(part, merged)
	}
	return nil
}

// speculate is launchAndWait's straggler pass, run after a stage's first
// attempts all completed. It estimates the stage's median task duration,
// re-launches every task whose duration exceeded
// DefaultSpeculationMultiplier times that median on a different executor,
// and commits whichever attempt finished first in virtual time (ties keep
// the original). The race is
// decided entirely on the virtual clock, so a run is bit-reproducible:
// the speculative attempt launches at the driver's deterministic decision
// time — no earlier than the median completion (when enough evidence
// exists) and no earlier than the straggler crossing the threshold — and
// wins only if its completion stamp beats the original's. comps entries
// for won races are replaced in place; the caller recomputes the stage
// end. Returns whether any speculative attempt won.
func (c *Context) speculate(stage *stageInfo, tasks []*taskDescriptor, comps []*completion) bool {
	n := len(comps)
	durs := make([]vtime.Stamp, n)
	ends := make([]vtime.Stamp, n)
	for i, comp := range comps {
		durs[i] = comp.execVT - comp.startVT
		ends[i] = comp.driverVT
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	med := durs[n/2]
	if med <= 0 {
		return false
	}
	decideVT := ends[n/2]
	threshold := vtime.Stamp(DefaultSpeculationMultiplier * float64(med))

	type candidate struct {
		i        int
		spec     *taskDescriptor
		ch       chan *completion
		launchVT vtime.Stamp
	}
	var cands []candidate
	for i, comp := range comps {
		if comp.execVT-comp.startVT <= threshold {
			continue
		}
		launchVT := vtime.Max(decideVT, comp.startVT+threshold)
		if launchVT >= comp.driverVT {
			// The original beat the driver's decision point: there is
			// nothing left to race.
			continue
		}
		orig := tasks[i]
		spec := &taskDescriptor{
			stage:         stage,
			part:          orig.part,
			run:           orig.run,
			resultSize:    orig.resultSize,
			ranged:        orig.ranged,
			mapLo:         orig.mapLo,
			mapHi:         orig.mapHi,
			rangedShuffle: orig.rangedShuffle,
			coalesced:     orig.coalesced,
			speculative:   true,
		}
		spec.attempt.Store(orig.attempt.Load() + 1)
		cands = append(cands, candidate{i: i, spec: spec, ch: make(chan *completion, 1), launchVT: launchVT})
	}
	if len(cands) == 0 {
		return false
	}

	c.mu.Lock()
	for _, cand := range cands {
		c.taskSeq++
		cand.spec.id = c.taskSeq
		c.tasks[cand.spec.id] = cand.spec
		c.waiters[cand.spec.id] = cand.ch
	}
	c.mu.Unlock()

	// Launch serially like the primary attempts: the driver CPU is one
	// resource, so each send starts no earlier than the previous freed it.
	var cursor vtime.Stamp
	launched := make([]bool, len(cands))
	for ci, cand := range cands {
		at := vtime.Max(cand.launchVT, cursor)
		exclude := map[string]bool{comps[cand.i].execID: true}
		free, err := c.launchTask(cand.spec, exclude, launchPayload(make([]byte, taskClosureBytes), cand.spec.id), at, "speculative launch failed")
		if err != nil {
			// Could not place the attempt anywhere: withdraw it. The
			// original result stands.
			c.mu.Lock()
			delete(c.tasks, cand.spec.id)
			delete(c.waiters, cand.spec.id)
			c.mu.Unlock()
			continue
		}
		cursor = free
		launched[ci] = true
		metrics.GetCounter(CounterSpecLaunched).Inc()
	}

	anyWon := false
	for ci, cand := range cands {
		if !launched[ci] {
			continue
		}
		comp2 := <-cand.ch
		won := comp2.err == nil && comp2.driverVT < comps[cand.i].driverVT
		if won {
			metrics.GetCounter(CounterSpecWon).Inc()
			comps[cand.i] = comp2
			anyWon = true
		} else {
			metrics.GetCounter(CounterSpecLost).Inc()
		}
		c.bus.Emit(obs.Event{
			Type: obs.EvTaskSpeculated, VT: comp2.driverVT, Job: stage.jobID,
			Stage: stage.id, Partition: cand.spec.part,
			Attempt: int(cand.spec.attempt.Load()), Executor: comp2.execID,
			Speculative: true, Won: won,
		})
		c.mu.Lock()
		delete(c.tasks, cand.spec.id)
		c.mu.Unlock()
	}
	return anyWon
}
