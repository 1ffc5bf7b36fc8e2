package spark

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/ucr"
)

// testRegistry resolves UCR servers lazily from a shared map.
type testRegistry struct {
	mu      sync.Mutex
	servers map[string]*ucr.Server
}

func (r *testRegistry) UCRServer(id string) (*ucr.Server, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.servers[id]
	return s, ok
}

type testCluster struct {
	ctx   *Context
	fab   *fabric.Fabric
	envs  []*rpc.Env
	execs []*Executor
}

func (tc *testCluster) close() {
	if tc.ctx != nil {
		tc.ctx.Close() // joins a killed executor's loss report
	}
	for _, e := range tc.execs {
		e.Close()
	}
	for _, e := range tc.envs {
		e.Shutdown()
	}
}

// newTestCluster builds an in-process cluster with one driver node and
// `workers` worker nodes, one executor per worker.
func newTestCluster(t *testing.T, workers, slots int, backend Backend) *testCluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DefaultParallelism = workers * slots
	return newTestClusterWith(t, workers, slots, backend, cfg)
}

// newTestClusterWith is newTestCluster under the caller's Config.
func newTestClusterWith(t *testing.T, workers, slots int, backend Backend, cfg Config) *testCluster {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	driverNode := f.AddNode("driver-node")
	driverEnv, err := rpc.NewEnv("driver", driverNode, "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{fab: f, envs: []*rpc.Env{driverEnv}}

	reg := &testRegistry{servers: make(map[string]*ucr.Server)}
	var execs []*Executor
	for w := 0; w < workers; w++ {
		node := f.AddNode(fmt.Sprintf("worker%d", w))
		env, err := rpc.NewEnv(fmt.Sprintf("exec-%d", w), node, "rpc", rpc.DefaultEnvConfig())
		if err != nil {
			t.Fatal(err)
		}
		tc.envs = append(tc.envs, env)
		e := NewExecutor(ExecutorConfig{
			ID:          fmt.Sprintf("exec-%d", w),
			Node:        node,
			Env:         env,
			Slots:       slots,
			CPU:         DefaultCPUModel(),
			UseUCR:      backend == BackendRDMA,
			UCRRegistry: reg,
		})
		if backend == BackendRDMA {
			reg.mu.Lock()
			reg.servers[e.ID()] = e.UCRServer()
			reg.mu.Unlock()
		}
		execs = append(execs, e)
	}
	tc.execs = execs
	ctx, err := NewContext(cfg, driverEnv, execs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.ctx = ctx
	t.Cleanup(tc.close)
	return tc
}

func TestParallelizeCollect(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	in := []int64{5, 1, 9, 3, 7, 2, 8, 4}
	rdd := Parallelize(c.ctx, in, 4)
	out, err := Collect(rdd)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	want := []int64{1, 2, 3, 4, 5, 7, 8, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestMapFilterCount(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	nums := Generate(c.ctx, 4, func(part int, tc *TaskContext) []int64 {
		out := make([]int64, 100)
		for i := range out {
			out[i] = int64(part*100 + i)
		}
		tc.ChargeRecords(len(out), 8*len(out))
		return out
	})
	evens := Filter(Map(nums, func(v int64) int64 { return v * 2 }), func(v int64) bool { return v%4 == 0 })
	n, err := Count(evens)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("count = %d, want 200", n)
	}
}

func TestFlatMapReduce(t *testing.T) {
	c := newTestCluster(t, 2, 1, BackendVanilla)
	words := Parallelize(c.ctx, []string{"a b", "c d e", "f"}, 2)
	tokens := FlatMap(words, func(s string) []string { return strings.Fields(s) })
	n, err := Count(tokens)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("count = %d", n)
	}
	longest, err := Reduce(tokens, func(a, b string) string {
		if a > b {
			return a
		}
		return b
	})
	if err != nil || longest != "f" {
		t.Fatalf("reduce = %q, %v", longest, err)
	}
}

func TestReduceEmpty(t *testing.T) {
	c := newTestCluster(t, 1, 1, BackendVanilla)
	empty := Parallelize(c.ctx, []int64(nil), 2)
	if _, err := Reduce(empty, func(a, b int64) int64 { return a + b }); err != ErrEmptyRDD {
		t.Fatalf("err = %v, want ErrEmptyRDD", err)
	}
}

func int64Conf(parts int) ShuffleConf[int64, int64] {
	return ShuffleConf[int64, int64]{
		Codec: PairCodec[int64, int64]{Key: Int64Codec{}, Val: Int64Codec{}},
		Ops:   Int64Key{},
		Parts: parts,
	}
}

func TestGroupByKeyCorrectness(t *testing.T) {
	for _, backend := range []Backend{BackendVanilla, BackendRDMA} {
		t.Run(backend.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, 2, backend)
			pairs := Generate(c.ctx, 6, func(part int, tc *TaskContext) []Pair[int64, int64] {
				out := make([]Pair[int64, int64], 50)
				for i := range out {
					out[i] = Pair[int64, int64]{K: int64(i % 10), V: int64(part)}
				}
				tc.ChargeRecords(len(out), 16*len(out))
				return out
			})
			grouped := GroupByKey(pairs, int64Conf(6))
			out, err := Collect(grouped)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 10 {
				t.Fatalf("groups = %d, want 10", len(out))
			}
			for _, g := range out {
				if len(g.V) != 30 { // 6 partitions x 5 occurrences of each key
					t.Fatalf("key %d has %d values, want 30", g.K, len(g.V))
				}
			}
		})
	}
}

func TestReduceByKeyCorrectness(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	pairs := Generate(c.ctx, 4, func(part int, tc *TaskContext) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], 100)
		for i := range out {
			out[i] = Pair[int64, int64]{K: int64(i % 4), V: 1}
		}
		return out
	})
	sums := ReduceByKey(pairs, int64Conf(4), func(a, b int64) int64 { return a + b })
	out, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("keys = %d", len(out))
	}
	for _, p := range out {
		if p.V != 100 { // 4 parts x 25 each
			t.Fatalf("key %d sum = %d, want 100", p.K, p.V)
		}
	}
}

func TestSortByKeyGlobalOrder(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	pairs := Generate(c.ctx, 4, func(part int, tc *TaskContext) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], 64)
		for i := range out {
			// Deterministic pseudo-random keys.
			out[i] = Pair[int64, int64]{K: int64((i*2654435761 + part*97) % 1000), V: int64(part)}
		}
		return out
	})
	sample, err := SampleKeys(pairs, 8)
	if err != nil {
		t.Fatal(err)
	}
	sorted := SortByKey(pairs, int64Conf(4), sample)
	out, err := Collect(sorted) // Collect preserves partition order
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 256 {
		t.Fatalf("records = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].K < out[i-1].K {
			t.Fatalf("not globally sorted at %d: %d < %d", i, out[i].K, out[i-1].K)
		}
	}
}

func TestRepartitionPreservesRecords(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	pairs := Generate(c.ctx, 4, func(part int, tc *TaskContext) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], 100)
		for i := range out {
			out[i] = Pair[int64, int64]{K: int64(part*100 + i), V: int64(i)}
		}
		return out
	})
	re := Repartition(pairs, int64Conf(0), 8)
	if re.NumPartitions() != 8 {
		t.Fatalf("partitions = %d", re.NumPartitions())
	}
	n, err := Count(re)
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("count = %d", n)
	}
}

func TestJoin(t *testing.T) {
	c := newTestCluster(t, 2, 1, BackendVanilla)
	left := Parallelize(c.ctx, []Pair[int64, int64]{{K: 1, V: 10}, {K: 2, V: 20}, {K: 1, V: 11}}, 2)
	right := Parallelize(c.ctx, []Pair[int64, int64]{{K: 1, V: 100}, {K: 3, V: 300}}, 2)
	joined := Join(left, int64Conf(2), right, int64Conf(2))
	out, err := Collect(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("joined = %v", out)
	}
	for _, p := range out {
		if p.K != 1 || p.V.V != 100 {
			t.Fatalf("unexpected join row %+v", p)
		}
	}
}

func TestCacheAndLocality(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	computeCount := 0
	var mu sync.Mutex
	data := Generate(c.ctx, 4, func(part int, tc *TaskContext) []int64 {
		mu.Lock()
		computeCount++
		mu.Unlock()
		return []int64{int64(part)}
	}).Cache()

	if _, err := Count(data); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	first := computeCount
	mu.Unlock()
	if first != 4 {
		t.Fatalf("first job computed %d partitions", first)
	}
	// Second job must hit the cache on the same executors (no recompute).
	if _, err := Count(data); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	second := computeCount
	mu.Unlock()
	if second != first {
		t.Fatalf("cache miss: recomputed %d partitions", second-first)
	}
	cachedTotal := 0
	for _, e := range c.execs {
		e.cacheMu.RLock()
		cachedTotal += len(e.cached)
		e.cacheMu.RUnlock()
	}
	if cachedTotal != 4 {
		t.Fatalf("cached partitions = %d", cachedTotal)
	}
}

func TestStageTimingsRecorded(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	pairs := Generate(c.ctx, 4, func(part int, tc *TaskContext) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], 10)
		for i := range out {
			out[i] = Pair[int64, int64]{K: int64(i), V: 1}
		}
		tc.ChargeRecords(10, 160)
		return out
	}).Cache()
	if _, err := Count(pairs); err != nil { // Job0: data generation
		t.Fatal(err)
	}
	grouped := GroupByKey(pairs, int64Conf(4))
	if _, err := Count(grouped); err != nil { // Job1: shuffle map + result
		t.Fatal(err)
	}
	stages := c.ctx.Stages()
	if len(stages) != 3 {
		t.Fatalf("stages = %d, want 3 (%+v)", len(stages), stages)
	}
	wantNames := []string{"Job0-ResultStage", "Job1-ShuffleMapStage", "Job1-ResultStage"}
	for i, want := range wantNames {
		if stages[i].Name != want {
			t.Fatalf("stage %d = %q, want %q", i, stages[i].Name, want)
		}
		if stages[i].End < stages[i].Start {
			t.Fatalf("stage %q has negative duration", want)
		}
	}
	if stages[1].Start < stages[0].End {
		t.Fatal("Job1 started before Job0 finished in virtual time")
	}
	if stages[2].ShuffleBytes == 0 {
		t.Fatal("shuffle-read stage recorded no shuffle bytes")
	}
	if stages[0].ShuffleBytes != 0 {
		t.Fatal("data-gen stage recorded shuffle bytes")
	}
}

func TestTaskFailurePropagates(t *testing.T) {
	c := newTestCluster(t, 2, 1, BackendVanilla)
	bad := Generate(c.ctx, 4, func(part int, tc *TaskContext) []int64 {
		return []int64{int64(part)}
	})
	failing := MapPartitions(bad, func(part int, tc *TaskContext, items []int64) ([]int64, error) {
		if part == 2 {
			return nil, fmt.Errorf("injected failure on partition %d", part)
		}
		return items, nil
	})
	_, err := Count(failing)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestAggregate(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	nums := Parallelize(c.ctx, []int64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	sum, err := Aggregate(nums,
		func() int64 { return 0 },
		func(acc, v int64) int64 { return acc + v },
		func(a, b int64) int64 { return a + b },
		8)
	if err != nil || sum != 36 {
		t.Fatalf("aggregate = %d, %v", sum, err)
	}
}

func TestTopAction(t *testing.T) {
	c := newTestCluster(t, 2, 1, BackendVanilla)
	nums := Parallelize(c.ctx, []int64{5, 9, 1, 7, 3, 8, 2}, 3)
	top, err := Top(nums, 3, func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0] != 9 || top[1] != 8 || top[2] != 7 {
		t.Fatalf("top = %v", top)
	}
}

func TestVirtualClockAdvancesAcrossJobs(t *testing.T) {
	c := newTestCluster(t, 2, 1, BackendVanilla)
	r := Parallelize(c.ctx, make([]int64, 1000), 4)
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	t1 := c.ctx.Clock()
	if t1 <= 0 {
		t.Fatal("clock did not advance")
	}
	if _, err := Count(r); err != nil {
		t.Fatal(err)
	}
	if c.ctx.Clock() <= t1 {
		t.Fatal("clock did not advance on second job")
	}
}

func TestShuffleDataLandsOnBlockManagers(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	pairs := Generate(c.ctx, 4, func(part int, tc *TaskContext) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], 100)
		for i := range out {
			out[i] = Pair[int64, int64]{K: int64(i), V: int64(i)}
		}
		return out
	})
	g := GroupByKey(pairs, int64Conf(4))
	if _, err := Count(g); err != nil {
		t.Fatal(err)
	}
	var blocks int
	for _, e := range c.execs {
		blocks += e.BlockManager().BlockCount()
	}
	if blocks == 0 {
		t.Fatal("no shuffle blocks stored")
	}
}

func TestBackendStrings(t *testing.T) {
	if BackendVanilla.String() != "IPoIB" || BackendRDMA.String() != "RDMA" ||
		BackendMPIBasic.String() != "MPI-Basic" || BackendMPIOpt.String() != "MPI" {
		t.Fatal("backend names drifted from the paper's labels")
	}
}

// TestParseBackend: every command-line alias and every name String prints
// parses, in any case, and the two round-trip; anything else is an error
// that lists the valid names.
func TestParseBackend(t *testing.T) {
	aliases := map[string]Backend{
		"vanilla": BackendVanilla, "ipoib": BackendVanilla,
		"rdma":      BackendRDMA,
		"mpi-basic": BackendMPIBasic, "basic": BackendMPIBasic,
		"mpi": BackendMPIOpt, "mpi-opt": BackendMPIOpt, "optimized": BackendMPIOpt,
	}
	for _, b := range []Backend{BackendVanilla, BackendRDMA, BackendMPIBasic, BackendMPIOpt} {
		aliases[b.String()] = b
	}
	for name, want := range aliases {
		for _, n := range []string{name, strings.ToUpper(name), strings.ToLower(name)} {
			got, err := ParseBackend(n)
			if err != nil || got != want {
				t.Errorf("ParseBackend(%q) = %v, %v; want %v", n, got, err, want)
			}
		}
	}
	for _, bad := range []string{"", "mpi4spark", "Backend(7)", "tcp"} {
		_, err := ParseBackend(bad)
		if err == nil {
			t.Errorf("ParseBackend(%q) succeeded", bad)
			continue
		}
		for _, valid := range []string{"vanilla", "rdma", "mpi-basic", "mpi"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseBackend(%q) error %q does not name %q", bad, err, valid)
			}
		}
	}
}

func TestTaskRetrySucceedsOnTransientFailure(t *testing.T) {
	c := newTestCluster(t, 3, 1, BackendVanilla)
	var mu sync.Mutex
	failures := 0
	flaky := Generate(c.ctx, 3, func(part int, tc *TaskContext) []int64 {
		return []int64{int64(part)}
	})
	// Fail partition 1 once per executor attempt until two executors have
	// been tried; the retry must move it elsewhere and succeed.
	attempted := map[string]bool{}
	guarded := MapPartitions(flaky, func(part int, tc *TaskContext, items []int64) ([]int64, error) {
		if part == 1 {
			mu.Lock()
			defer mu.Unlock()
			if len(attempted) < 2 && !attempted[tcExecID(tc)] {
				attempted[tcExecID(tc)] = true
				failures++
				return nil, fmt.Errorf("transient failure on %s", tcExecID(tc))
			}
		}
		return items, nil
	})
	n, err := Count(guarded)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if n != 3 {
		t.Fatalf("count = %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if failures == 0 {
		t.Fatal("failure injection never triggered")
	}
}

// tcExecID exposes the executor id for the retry test.
func tcExecID(tc *TaskContext) string { return tc.exec.id }

func TestBroadcastValue(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	weights := []float64{1, 2, 3}
	b := NewBroadcast(c.ctx, weights, 24)
	defer b.Destroy()
	data := Generate(c.ctx, 4, func(part int, tc *TaskContext) []float64 {
		w := b.Value(tc)
		return []float64{w[0] + w[1] + w[2]}
	})
	out, err := Collect(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 6 {
			t.Fatalf("broadcast value corrupted: %v", out)
		}
	}
}

func TestBroadcastCachedPerExecutor(t *testing.T) {
	c := newTestCluster(t, 1, 1, BackendVanilla)
	b := NewBroadcast(c.ctx, int64(42), 1<<20) // 1 MiB blob
	data := Generate(c.ctx, 1, func(part int, tc *TaskContext) []int64 {
		return []int64{b.Value(tc)}
	})
	if _, err := Count(data); err != nil {
		t.Fatal(err)
	}
	t1 := c.ctx.Clock()
	// Second job: the broadcast is already cached on the executor, so the
	// second job must be much cheaper than the first (no 1 MiB stream).
	if _, err := Count(data); err != nil {
		t.Fatal(err)
	}
	t2 := c.ctx.Clock()
	first := int64(t1)
	second := int64(t2 - t1)
	if second >= first {
		t.Fatalf("broadcast not cached: first job %d, second job %d", first, second)
	}
}

func TestBroadcastDriverLocalValue(t *testing.T) {
	c := newTestCluster(t, 1, 1, BackendVanilla)
	b := NewBroadcast(c.ctx, "driver-side", 16)
	if got := b.Value(&TaskContext{}); got != "driver-side" {
		t.Fatalf("driver-local Value = %q", got)
	}
	if b.id == 0 {
		t.Fatal("broadcast id not assigned")
	}
}

func TestCacheLocalityPrefersUnhealthyFallback(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	data := Generate(c.ctx, 2, func(part int, tc *TaskContext) []int64 {
		return []int64{int64(part)}
	}).Cache()
	if _, err := Count(data); err != nil {
		t.Fatal(err)
	}
	// Blacklist the executor holding partition 0's cache; the next job
	// must still succeed by recomputing elsewhere.
	c.ctx.mu.Lock()
	var holder string
	for k, v := range c.ctx.cacheLocs {
		if k.part == 0 {
			holder = v
		}
	}
	c.ctx.mu.Unlock()
	if holder == "" {
		t.Fatal("no cache location recorded")
	}
	c.ctx.mu.Lock()
	c.ctx.lostExecs[holder] = true
	c.ctx.mu.Unlock()
	if n, err := Count(data); err != nil || n != 2 {
		t.Fatalf("count after blacklist = %d, %v", n, err)
	}
}

func TestKeyBy(t *testing.T) {
	c := newTestCluster(t, 1, 1, BackendVanilla)
	words := Parallelize(c.ctx, []string{"aa", "b", "ccc"}, 2)
	byLen := KeyBy(words, func(s string) int64 { return int64(len(s)) })
	out, err := Collect(byLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d pairs, want 3", len(out))
	}
	for _, p := range out {
		if int64(len(p.V)) != p.K {
			t.Fatalf("bad pair %+v", p)
		}
	}
}
