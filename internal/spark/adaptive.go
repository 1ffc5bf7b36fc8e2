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

// physTask is the share of a result stage that one task computes. The
// planner rewrites the stage's logical partition list into these: a plain
// task covers one partition whole, a split sub-task covers the
// [mapLo, mapHi) map-id slice of shuffle for one oversized partition, and a
// coalesced task computes several runt partitions back to back. A task of
// an unadapted stage has the zero share.
type physTask struct {
	parts            []int // original partitions covered (len > 1 = coalesced)
	shuffle          int   // the shuffle a split sub-task reads a map range of
	mapLo, mapHi     int
	subIdx, subCount int // position among the partition's sub-tasks when ranged
}

// ranged reports whether the task is a split sub-task: the planner never
// cuts an empty map range.
func (pt physTask) ranged() bool { return pt.mapHi > pt.mapLo }

// coalesced is the number of partitions a coalesced task covers, 0 for any
// other task.
func (pt physTask) coalesced() int {
	if len(pt.parts) > 1 {
		return len(pt.parts)
	}
	return 0
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
						parts: []int{r}, shuffle: splitShuffle,
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

// coalescedResult is a coalesced task's result: fn's result for each of
// its partitions, in covered-partition order.
type coalescedResult []any

// coalescedTask returns the run and resultSize that every coalesced task of
// a result stage over final shares: a task applies fn to the partitions of
// its share back to back, and its result's size is the sum of theirs.
func coalescedTask(final rddBase, fn partitionFunc, resultSize func(any) int) (func(tc *TaskContext) (any, *shuffle.MapStatus, error), func(any) int) {
	run := func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
		cr := make(coalescedResult, 0, len(tc.share.parts))
		for _, p := range tc.share.parts {
			data, err := final.computePartition(p, tc)
			if err != nil {
				return nil, nil, err
			}
			cr = append(cr, fn(p, tc, data))
		}
		return cr, nil, nil
	}
	size := func(res any) int {
		cr, ok := res.(coalescedResult)
		if !ok {
			return 16
		}
		n := 0
		for _, r := range cr {
			n += resultSize(r)
		}
		return n
	}
	return run, size
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
func (c *Context) speculate(comps []*completion) bool {
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
		spec     *attempt
		launchVT vtime.Stamp
	}
	var cands []candidate
	for _, comp := range comps {
		if comp.execVT-comp.startVT <= threshold {
			continue
		}
		launchVT := vtime.Max(decideVT, comp.startVT+threshold)
		if launchVT >= comp.driverVT {
			// The original beat the driver's decision point: there is
			// nothing left to race.
			continue
		}
		orig := comp.attempt
		cands = append(cands, candidate{spec: &attempt{
			task: orig.task, index: orig.index, number: orig.number + 1,
			speculative: true, done: new(vtime.Mailbox[*completion]),
		}, launchVT: launchVT})
	}

	// Launch serially like the primary attempts: the driver CPU is one
	// resource, so each send starts no earlier than the previous freed it.
	var cursor vtime.Stamp
	var launched []*attempt
	for _, cand := range cands {
		at := vtime.Max(cand.launchVT, cursor)
		exclude := map[string]bool{comps[cand.spec.index].execID: true}
		free, err := c.launchTask(cand.spec, exclude, make([]byte, taskClosureBytes), at, "speculative launch failed")
		if err != nil {
			// Could not place the attempt anywhere: the original result
			// stands.
			continue
		}
		cursor = free
		launched = append(launched, cand.spec)
		metrics.GetCounter(CounterSpecLaunched).Inc()
	}

	anyWon := false
	for _, spec := range launched {
		comp2, _ := spec.done.Recv()
		won := comp2.err == nil && comp2.driverVT < comps[spec.index].driverVT
		if won {
			metrics.GetCounter(CounterSpecWon).Inc()
			comps[spec.index] = comp2
			anyWon = true
		} else {
			metrics.GetCounter(CounterSpecLost).Inc()
		}
		stage := spec.task.stage
		c.bus.Emit(obs.Event{
			Type: obs.EvTaskSpeculated, VT: comp2.driverVT, Job: stage.jobID,
			Stage: stage.id, Partition: spec.task.part,
			Attempt: spec.number, Executor: comp2.execID,
			Speculative: true, Won: won,
		})
	}
	return anyWon
}
