// Adaptive-execution conformance: on every backend the paper compares,
// skew-aware splitting and runt coalescing must produce byte-identical
// results to the uniform plan, the scheduler.adaptive.* counters must
// reconcile exactly with the StageAdapted events in the log. Splitting is
// exercised on both fetch paths: the service's ranged merged runs and the
// inherently ranged per-block path.
package spark_test

import (
	"path/filepath"
	"sort"
	"testing"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
)

const (
	skewParts   = 6
	hotPerPart  = 140 // pairs of hot key 0 per generator partition
	coldPerPart = 60  // pairs of keys 1..9 per generator partition
)

// skewedPairs builds a deterministic skewed data set: key 0 carries 70%
// of all pairs (and hashes to one reduce partition), the rest spread over
// keys 1..9. Values encode (partition, index) so group contents are
// exactly checkable.
func skewedPairs(ctx *spark.Context) *spark.RDD[spark.Pair[int64, int64]] {
	return spark.Generate(ctx, skewParts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], 0, hotPerPart+coldPerPart)
		for i := 0; i < hotPerPart; i++ {
			out = append(out, spark.Pair[int64, int64]{K: 0, V: int64(part*1000 + i)})
		}
		for i := 0; i < coldPerPart; i++ {
			out = append(out, spark.Pair[int64, int64]{K: int64(1 + i%9), V: int64(part*1000 + hotPerPart + i)})
		}
		tc.ChargeRecords(len(out), 16*len(out))
		return out
	})
}

// wantSkewedGroups computes the expected GroupByKey result directly.
func wantSkewedGroups() map[int64][]int64 {
	want := make(map[int64][]int64)
	for part := 0; part < skewParts; part++ {
		for i := 0; i < hotPerPart; i++ {
			want[0] = append(want[0], int64(part*1000+i))
		}
		for i := 0; i < coldPerPart; i++ {
			k := int64(1 + i%9)
			want[k] = append(want[k], int64(part*1000+hotPerPart+i))
		}
	}
	for k := range want {
		sort.Slice(want[k], func(a, b int) bool { return want[k][a] < want[k][b] })
	}
	return want
}

func verifySkewedGroups(t *testing.T, out []spark.Pair[int64, []int64]) {
	t.Helper()
	want := wantSkewedGroups()
	if len(out) != len(want) {
		t.Fatalf("groups = %d, want %d", len(out), len(want))
	}
	for _, kv := range out {
		got := append([]int64(nil), kv.V...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		w := want[kv.K]
		if len(got) != len(w) {
			t.Fatalf("key %d: group size %d, want %d", kv.K, len(got), len(w))
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("key %d: value[%d] = %d, want %d", kv.K, i, got[i], w[i])
			}
		}
	}
}

// TestAdaptiveSplitAcrossTransports runs the skewed GroupBy with the
// adaptive planner forced into splitting (small target bytes) on every
// backend, with the external shuffle service on (ranged merged-run path)
// and off (per-block path). The grouped result must equal the directly
// computed one, the log must show ranged sub-tasks, and the adaptive
// counters must match the StageAdapted events exactly.
func TestAdaptiveSplitAcrossTransports(t *testing.T) {
	for _, backend := range chaosBackends {
		for _, service := range []bool{true, false} {
			name := backend.String() + "/per-block"
			if service {
				name = backend.String() + "/merged-run"
			}
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.jsonl")
				snap := metrics.Snapshot()
				cc := newChaosClusterCfg(t, backend, func(c *spark.Config) {
					c.EventLogPath = path
					c.ExternalShuffleService = service
					c.AdaptiveExecution = true
					c.AdaptiveTargetBytes = 2 << 10
				})

				grouped := spark.GroupByKey(skewedPairs(cc.ctx), chaosConf(skewParts))
				out, err := spark.Collect(grouped)
				if err != nil {
					t.Fatal(err)
				}
				verifySkewedGroups(t, out)
				cc.close()

				splits := snap.DeltaValue(spark.CounterAdaptiveSplits)
				coalesces := snap.DeltaValue(spark.CounterAdaptiveCoalesces)
				if splits == 0 {
					t.Fatal("adaptive planner split nothing; test proves nothing")
				}

				events, err := obs.ReadLog(path)
				if err != nil {
					t.Fatal(err)
				}
				report := obs.Analyze(events)
				if int64(report.Splits) != splits || int64(report.Coalesces) != coalesces {
					t.Fatalf("StageAdapted events (splits=%d coalesces=%d) != counter deltas (splits=%d coalesces=%d)",
						report.Splits, report.Coalesces, splits, coalesces)
				}
				if report.AdaptedStages == 0 {
					t.Fatal("no StageAdapted event in log")
				}
				ranged := 0
				for _, j := range report.Jobs {
					for _, s := range j.Stages {
						for _, task := range s.Tasks {
							if task.Ranged() {
								ranged++
							}
						}
					}
				}
				if ranged < 2 {
					t.Fatalf("ranged sub-tasks in log = %d, want >= 2 (a split produces several)", ranged)
				}
				// The byte accounting of ranged fetches must still match
				// the counters exactly.
				local, remote := report.Totals()
				if wantL, wantR := snap.DeltaValue("shuffle.fetch.bytes_local"), snap.DeltaValue("shuffle.fetch.bytes_remote"); local != wantL || remote != wantR {
					t.Fatalf("log bytes (local=%d remote=%d) != counters (local=%d remote=%d)", local, remote, wantL, wantR)
				}
			})
		}
	}
}

// TestAdaptiveCoalesceAcrossTransports forces the coalesce-only path: a
// huge target makes every reduce partition a runt, so the planner folds
// all of them into few tasks. The result must be identical and the
// coalesced task's accounting (Coalesced partition count, counter/event
// reconciliation) exact.
func TestAdaptiveCoalesceAcrossTransports(t *testing.T) {
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			snap := metrics.Snapshot()
			cc := newChaosClusterCfg(t, backend, func(c *spark.Config) {
				c.EventLogPath = path
				c.ExternalShuffleService = true
				c.AdaptiveExecution = true
				c.AdaptiveTargetBytes = 1 << 30
			})

			grouped := spark.GroupByKey(skewedPairs(cc.ctx), chaosConf(skewParts))
			out, err := spark.Collect(grouped)
			if err != nil {
				t.Fatal(err)
			}
			verifySkewedGroups(t, out)
			cc.close()

			splits := snap.DeltaValue(spark.CounterAdaptiveSplits)
			coalesces := snap.DeltaValue(spark.CounterAdaptiveCoalesces)
			if splits != 0 {
				t.Fatalf("splits = %d, want 0 with a huge target", splits)
			}
			if coalesces == 0 {
				t.Fatal("planner coalesced nothing; test proves nothing")
			}

			events, err := obs.ReadLog(path)
			if err != nil {
				t.Fatal(err)
			}
			report := obs.Analyze(events)
			if int64(report.Coalesces) != coalesces {
				t.Fatalf("StageAdapted coalesces %d != counter delta %d", report.Coalesces, coalesces)
			}
			// The reduce stage must have run coalesced tasks covering all
			// skewParts partitions between them.
			covered := 0
			for _, j := range report.Jobs {
				for _, s := range j.Stages {
					for _, task := range s.Tasks {
						if task.Coalesced > 0 {
							covered += task.Coalesced
						}
					}
				}
			}
			if covered != skewParts {
				t.Fatalf("coalesced tasks cover %d partitions, want %d", covered, skewParts)
			}
		})
	}
}
