package shuffle

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

func TestMapStatusRoundTrip(t *testing.T) {
	st := &MapStatus{
		Loc:   Location{ExecID: "exec-2", Addr: fabric.Addr{Node: "n3", Port: "bts"}},
		Sizes: []int64{0, 100, 2048, 7},
		Sums:  []uint32{0, 1, 0xdeadbeef, 3},
	}
	data, err := func() ([]byte, error) {
		tr := NewMapOutputTracker()
		tr.RegisterShuffle(5, 1)
		if err := tr.RegisterMapOutput(5, 0, st); err != nil {
			return nil, err
		}
		return tr.SerializeOutputs(5)
	}()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DeserializeOutputs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("len = %d", len(out))
	}
	got := out[0]
	if got.Loc != st.Loc || fmt.Sprint(got.Sizes, got.Sums) != fmt.Sprint(st.Sizes, st.Sums) {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestServiceLocationSurvivesHoles is the regression test for the Service
// flag in the tracker wire format: a mix of service-hosted outputs,
// executor-hosted outputs, and holes must round-trip with the flag intact.
// Losing it would send reducers back to executor fetch semantics, and the
// supervisor's UnregisterOutputsOnExecutor would start forgetting outputs
// that actually survived the executor.
func TestServiceLocationSurvivesHoles(t *testing.T) {
	tr := NewMapOutputTracker()
	tr.RegisterShuffle(11, 3)
	svcLoc := Location{
		ExecID:  "shuffle-svc-0",
		Addr:    fabric.Addr{Node: "w0", Port: "shuffle-svc-rpc"},
		Service: true,
	}
	execLoc := Location{ExecID: "exec-1", Addr: fabric.Addr{Node: "w1", Port: "rpc"}}
	if err := tr.RegisterMapOutput(11, 0, &MapStatus{Loc: svcLoc, Sizes: []int64{5, 0}, Sums: []uint32{1, 0}}); err != nil {
		t.Fatal(err)
	}
	// Map 1 stays a hole.
	if err := tr.RegisterMapOutput(11, 2, &MapStatus{Loc: execLoc, Sizes: []int64{0, 9}, Sums: []uint32{0, 2}}); err != nil {
		t.Fatal(err)
	}
	data, err := tr.SerializeOutputs(11)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DeserializeOutputs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[1] != nil {
		t.Fatalf("round trip = %+v, want 3 statuses with a hole at 1", out)
	}
	if out[0].Loc != svcLoc {
		t.Fatalf("service location corrupted: %+v, want %+v", out[0].Loc, svcLoc)
	}
	if !out[0].Loc.Service {
		t.Fatal("Service flag lost across serialization")
	}
	if out[2].Loc != execLoc || out[2].Loc.Service {
		t.Fatalf("executor location corrupted: %+v", out[2].Loc)
	}
}

func TestTrackerErrors(t *testing.T) {
	tr := NewMapOutputTracker()
	if err := tr.RegisterMapOutput(9, 0, &MapStatus{}); err == nil {
		t.Fatal("register on unknown shuffle succeeded")
	}
	tr.RegisterShuffle(9, 2)
	if err := tr.RegisterMapOutput(9, 5, &MapStatus{}); err == nil {
		t.Fatal("out-of-range map id succeeded")
	}
	// An incomplete shuffle serializes with explicit holes: the reducer
	// must see the missing outputs as nil and raise a metadata fetch
	// failure (the executor-loss recovery path), not a decode error.
	data, err := tr.SerializeOutputs(9)
	if err != nil {
		t.Fatalf("serializing incomplete shuffle: %v", err)
	}
	holey, err := DeserializeOutputs(data)
	if err != nil {
		t.Fatalf("deserializing holes: %v", err)
	}
	if len(holey) != 2 || holey[0] != nil || holey[1] != nil {
		t.Fatalf("holey round trip = %+v, want two nils", holey)
	}
	if _, err := tr.Outputs(404); err == nil {
		t.Fatal("outputs of unknown shuffle succeeded")
	}
}

func TestTrackerRPC(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	nd, ne := f.AddNode("driver"), f.AddNode("exec")
	driverEnv, err := rpc.NewEnv("driver", nd, "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer driverEnv.Shutdown()
	execEnv, err := rpc.NewEnv("exec", ne, "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer execEnv.Shutdown()

	tr := NewMapOutputTracker()
	tr.RegisterShuffle(1, 2)
	for m := 0; m < 2; m++ {
		st := &MapStatus{Loc: Location{ExecID: fmt.Sprintf("e%d", m)}, Sizes: []int64{int64(m), 10}, Sums: []uint32{1, 2}}
		if err := tr.RegisterMapOutput(1, m, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := ServeTracker(driverEnv, tr); err != nil {
		t.Fatal(err)
	}

	client := NewTrackerClient(execEnv, driverEnv.Addr())
	ss, vt, err := client.GetOutputs(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 || ss[1].Sizes[0] != 1 {
		t.Fatalf("statuses = %+v", ss)
	}
	if vt <= 0 {
		t.Fatal("tracker RPC was free")
	}
	// Cached second query costs nothing extra.
	_, vt2, err := client.GetOutputs(1, vt)
	if err != nil {
		t.Fatal(err)
	}
	if vt2 != vt {
		t.Fatalf("cached query advanced time: %v -> %v", vt, vt2)
	}
	client.Invalidate(1)
	if _, _, err := client.GetOutputs(1, vt); err != nil {
		t.Fatal(err)
	}
	// Unknown shuffle surfaces as an error.
	if _, _, err := client.GetOutputs(42, 0); err == nil {
		t.Fatal("unknown shuffle query succeeded")
	}
}

func TestWriteMapOutput(t *testing.T) {
	bm := storage.NewBlockManager("exec-0")
	m := NewManager(bm)
	loc := Location{ExecID: "exec-0"}
	st := m.WriteMapOutput(3, 1, [][]byte{[]byte("aa"), nil, []byte("cccc")}, loc)
	if st.Sizes[0] != 2 || st.Sizes[1] != 0 || st.Sizes[2] != 4 {
		t.Fatalf("sizes = %v", st.Sizes)
	}
	d, ok := bm.Get(storage.ShuffleBlockID(3, 1, 2))
	if !ok || string(d) != "cccc" {
		t.Fatalf("block = %q, %v", d, ok)
	}
}

// fetchEnv builds two executors with populated shuffle blocks and returns
// a fetch through the given BTS constructor.
func runFetchTest(t *testing.T, useUCR bool) {
	f := fabric.New(fabric.NewIBHDRModel())
	n0, n1, nd := f.AddNode("w0"), f.AddNode("w1"), f.AddNode("drv")
	_ = nd

	bm0 := storage.NewBlockManager("exec-0")
	bm1 := storage.NewBlockManager("exec-1")
	mgr0 := NewManager(bm0)
	mgr1 := NewManager(bm1)

	env0, err := rpc.NewEnv("exec-0", n0, "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env0.Shutdown()
	env1, err := rpc.NewEnv("exec-1", n1, "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env1.Shutdown()
	env0.RegisterChunkResolver(func(id string) ([]byte, bool) { return bm0.Get(storage.BlockID(id)) })
	env1.RegisterChunkResolver(func(id string) ([]byte, bool) { return bm1.Get(storage.BlockID(id)) })

	loc0 := Location{ExecID: "exec-0", Addr: env0.Addr()}
	loc1 := Location{ExecID: "exec-1", Addr: env1.Addr()}

	// Two map tasks, 2 reduce partitions. Map 0 ran on exec-0, map 1 on exec-1.
	block := func(m, r int) []byte {
		return bytes.Repeat([]byte{byte(10*m + r)}, 1000)
	}
	st0 := mgr0.WriteMapOutput(0, 0, [][]byte{block(0, 0), block(0, 1)}, loc0)
	st1 := mgr1.WriteMapOutput(0, 1, [][]byte{block(1, 0), block(1, 1)}, loc1)
	statuses := []*MapStatus{st0, st1}

	var bts BlockTransferService
	if useUCR {
		srv1 := ucr.NewServer(rdma.OpenDevice(n1), func(id string) ([]byte, bool) {
			return bm1.Get(storage.BlockID(id))
		}, ucr.DefaultConfig())
		defer srv1.Close()
		reg := ucrRegistry{"exec-1": srv1}
		bts = NewUCRBTS(rdma.OpenDevice(n0), reg)
		defer bts.Close()
	} else {
		bts = NewNettyBTS(env0)
	}

	// exec-0 reduces partition 1: one local block, one remote.
	results, vt, err := mgr0.FetchShuffleParts(0, 1, statuses, "exec-0", bts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if !bytes.Equal(results[0].Data, block(0, 1)) {
		t.Error("local block wrong")
	}
	if !bytes.Equal(results[1].Data, block(1, 1)) {
		t.Error("remote block wrong")
	}
	if vt <= 0 {
		t.Error("fetch was free")
	}
}

type ucrRegistry map[string]*ucr.Server

func (r ucrRegistry) UCRServer(execID string) (*ucr.Server, bool) {
	s, ok := r[execID]
	return s, ok
}

func TestFetchShufflePartsNetty(t *testing.T) { runFetchTest(t, false) }
func TestFetchShufflePartsUCR(t *testing.T)   { runFetchTest(t, true) }

func TestFetchMissingMapOutput(t *testing.T) {
	bm := storage.NewBlockManager("e")
	m := NewManager(bm)
	_, _, err := m.FetchShuffleParts(0, 0, []*MapStatus{nil}, "e", nil, 0)
	if err == nil {
		t.Fatal("fetch with missing map output succeeded")
	}
}

func TestFetchSkipsEmptyBlocks(t *testing.T) {
	bm := storage.NewBlockManager("e")
	m := NewManager(bm)
	loc := Location{ExecID: "e"}
	st := m.WriteMapOutput(0, 0, [][]byte{nil, []byte("x")}, loc)
	results, _, err := m.FetchShuffleParts(0, 0, []*MapStatus{st}, "e", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Data != nil {
		t.Fatal("empty block fetched")
	}
}

func TestFetchLocalMissingBlock(t *testing.T) {
	bm := storage.NewBlockManager("e")
	m := NewManager(bm)
	st := &MapStatus{Loc: Location{ExecID: "e"}, Sizes: []int64{5}}
	if _, _, err := m.FetchShuffleParts(0, 0, []*MapStatus{st}, "e", nil, 0); err == nil {
		t.Fatal("missing local block fetch succeeded")
	}
}

// TestFetchPartitionOutsideStatus: a reduce task asking for a partition its
// map statuses do not have gets a FetchFailedError with no location (nothing
// to unregister), not an index-out-of-range panic that kills the executor.
func TestFetchPartitionOutsideStatus(t *testing.T) {
	reply := encodeOutputs([]*MapStatus{{Loc: Location{ExecID: "e1"}, Sizes: []int64{5, 6}, Sums: []uint32{1, 2}}})
	statuses, err := DeserializeOutputs(reply)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(storage.NewBlockManager("self"))
	for _, reduceID := range []int{3, 2, -1} {
		_, _, err := m.FetchShuffleParts(0, reduceID, statuses, "self", nil, 0)
		ff, ok := AsFetchFailed(err)
		if !ok || ff.MapID != 0 || ff.ReduceID != reduceID || ff.Loc != (Location{}) {
			t.Errorf("reduce %d of 2 partitions: %v, want a FetchFailedError for map 0 with no location", reduceID, err)
		}
	}
}

// TestMetadataAllocationsFlat holds a reduce task's block metadata to a
// constant number of heap objects whatever its block count: decoding a
// tracker reply over 4 locations, writing a map output, and a local-only
// fetch each allocate the same objects (±1) at 256 statuses or blocks as at
// 16.
func TestMetadataAllocationsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without the race detector")
	}
	measure := func(n int) (decode, write, fetch float64) {
		statuses := make([]*MapStatus, n)
		for m := range statuses {
			loc := Location{ExecID: fmt.Sprintf("exec-%d", m%4), Addr: fabric.Addr{Node: fmt.Sprintf("w%d", m%4), Port: "rpc"}}
			statuses[m] = &MapStatus{Loc: loc, Sizes: []int64{int64(m), 8}, Sums: []uint32{uint32(m), 9}}
		}
		reply := encodeOutputs(statuses)
		decode = testing.AllocsPerRun(20, func() {
			if _, err := DeserializeOutputs(reply); err != nil {
				t.Fatal(err)
			}
		})
		self := Location{ExecID: "self"}
		m := NewManager(storage.NewBlockManager(self.ExecID))
		parts := make([][]byte, n)
		for r := range parts {
			parts[r] = []byte{byte(r)}
		}
		write = testing.AllocsPerRun(20, func() { m.WriteMapOutput(1, 0, parts, self) })
		local := make([]*MapStatus, n)
		for mapID := range local {
			local[mapID] = m.WriteMapOutput(2, mapID, [][]byte{{byte(mapID)}}, self)
		}
		fetch = testing.AllocsPerRun(20, func() {
			if _, _, err := m.FetchShuffleParts(2, 0, local, self.ExecID, nil, 0); err != nil {
				t.Fatal(err)
			}
		})
		return decode, write, fetch
	}
	d16, w16, f16 := measure(16)
	d256, w256, f256 := measure(256)
	for _, c := range []struct {
		name         string
		small, large float64
	}{{"DeserializeOutputs", d16, d256}, {"WriteMapOutput", w16, w256}, {"local FetchShuffleParts", f16, f256}} {
		t.Logf("%s: %.0f objects at 16, %.0f at 256", c.name, c.small, c.large)
		if c.large > c.small+1 {
			t.Errorf("%s allocates %.0f objects at 256 and %.0f at 16: its metadata costs per block", c.name, c.large, c.small)
		}
	}
}

// fetchCall is one request a recordingBTS saw.
type fetchCall struct {
	peer string
	ids  []string
	at   vtime.Stamp
}

// recordingBTS serves blocks from one block manager per executor and records
// every request; an id it does not hold (a merged run) fails in place.
type recordingBTS struct {
	served map[string]*storage.BlockManager
	mu     sync.Mutex
	calls  []fetchCall
}

func (r *recordingBTS) Fetch(loc Location, ids []string, chunkBytes int, at vtime.Stamp) ([]rpc.BatchBlockResult, vtime.Stamp, error) {
	call := fetchCall{peer: loc.ExecID, ids: append([]string(nil), ids...), at: at}
	rs := make([]rpc.BatchBlockResult, len(ids))
	for i, id := range ids {
		rs[i] = rpc.BatchBlockResult{VT: at + 1, Err: fmt.Errorf("no block %s", id)}
		if data, ok := r.served[loc.ExecID].Get(storage.BlockID(id)); ok {
			rs[i] = rpc.BatchBlockResult{VT: at + 1, Data: data}
		}
	}
	r.mu.Lock()
	r.calls = append(r.calls, call)
	r.mu.Unlock()
	return rs, at + 1, nil
}

func (r *recordingBTS) Close() {}

// perPeer groups requests by peer, each peer's in the order it issued them.
// A reduce task's batches fly side by side, so only the order within one
// peer's share of the fetch is fixed.
func perPeer(calls []fetchCall) map[string][]fetchCall {
	out := map[string][]fetchCall{}
	for _, c := range calls {
		out[c.peer] = append(out[c.peer], c)
	}
	return out
}

// TestFetchBatchesPinned pins the requests a reduce task issues to each peer:
// one, with that peer's blocks in map order, local and empty blocks never
// asked for, and a service-hosted group asked first for its merged run (the
// ranged id for a map range), its per-block fallback leaving when the run's
// miss lands (at+1 here).
func TestFetchBatchesPinned(t *testing.T) {
	const shuffleID, reduceID, at = 4, 1, vtime.Stamp(1000)
	owners := []string{"e2", "self", "e1", "e2", "e3", "e1", "self", "svc", "e2", "e1", "svc", "e3"}
	empty := map[int]bool{4: true, 9: true} // map 4 on e3 and map 9 on e1 have nothing for reduceID
	served := map[string]*storage.BlockManager{}
	statuses := make([]*MapStatus, len(owners))
	for m, owner := range owners {
		if served[owner] == nil {
			served[owner] = storage.NewBlockManager(owner)
		}
		parts := [][]byte{{1}, bytes.Repeat([]byte{byte(m)}, 10+m), {3}}
		if empty[m] {
			parts[reduceID] = nil
		}
		loc := Location{ExecID: owner, Service: owner == "svc"}
		statuses[m] = NewManager(served[owner]).WriteMapOutput(shuffleID, m, parts, loc)
	}
	ids := func(maps ...int) []string {
		out := make([]string, len(maps))
		for i, m := range maps {
			out[i] = fmt.Sprintf("shuffle_%d_%d_%d", shuffleID, m, reduceID)
		}
		return out
	}
	for _, c := range []struct {
		name         string
		mapLo, mapHi int
		want         []fetchCall
	}{
		{"all maps", 0, len(owners), []fetchCall{
			{"e2", ids(0, 3, 8), at},
			{"e1", ids(2, 5), at},
			{"svc", []string{"shuffleMerged_4_1"}, at},
			{"svc", ids(7, 10), at + 1},
			{"e3", ids(11), at},
		}},
		{"maps [2, 9)", 2, 9, []fetchCall{
			{"e1", ids(2, 5), at},
			{"e2", ids(3, 8), at},
			{"svc", []string{"shuffleMergedRange_4_1_2_9"}, at},
			{"svc", ids(7), at + 1},
		}},
	} {
		bts := &recordingBTS{served: served}
		m := NewManager(served["self"])
		results, _, err := m.FetchShuffleRange(shuffleID, reduceID, statuses, "self", bts, at, c.mapLo, c.mapHi)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(perPeer(bts.calls), perPeer(c.want)) {
			t.Errorf("%s: requests\n%v\nwant\n%v", c.name, bts.calls, c.want)
		}
		for mapID := c.mapLo; mapID < c.mapHi; mapID++ {
			want := []byte(nil)
			if !empty[mapID] {
				want = bytes.Repeat([]byte{byte(mapID)}, 10+mapID)
			}
			if !bytes.Equal(results[mapID].Data, want) || results[mapID].Local != (owners[mapID] == "self" && want != nil) {
				t.Errorf("%s: map %d landed %v (local %v)", c.name, mapID, results[mapID].Data, results[mapID].Local)
			}
		}
	}
}

// TestFetchBatchesGroupedByPeer interleaves 300 map outputs over nine peers
// and the reading executor: each peer's blocks go in one request, in map
// order.
func TestFetchBatchesGroupedByPeer(t *testing.T) {
	const shuffleID, reduceID, maps = 2, 0, 300
	rng := rand.New(rand.NewSource(11))
	served := map[string]*storage.BlockManager{}
	statuses := make([]*MapStatus, maps)
	want := map[string][]string{}
	for m := range statuses {
		owner := fmt.Sprintf("e%d", rng.Intn(10))
		if owner == "e0" {
			owner = "self"
		}
		if served[owner] == nil {
			served[owner] = storage.NewBlockManager(owner)
		}
		statuses[m] = NewManager(served[owner]).WriteMapOutput(shuffleID, m, [][]byte{{byte(m)}}, Location{ExecID: owner})
		if owner == "self" {
			continue
		}
		want[owner] = append(want[owner], fmt.Sprintf("shuffle_%d_%d_%d", shuffleID, m, reduceID))
	}
	bts := &recordingBTS{served: served}
	m := NewManager(served["self"])
	if _, _, err := m.FetchShuffleParts(shuffleID, reduceID, statuses, "self", bts, 0); err != nil {
		t.Fatal(err)
	}
	got := perPeer(bts.calls)
	if len(bts.calls) != len(want) || len(got) != len(want) {
		t.Fatalf("%d requests to %d peers, want one per peer (%d)", len(bts.calls), len(got), len(want))
	}
	for peer, calls := range got {
		if !reflect.DeepEqual(calls[0].ids, want[peer]) {
			t.Fatalf("request to %s asks %v, want its blocks %v", peer, calls[0].ids, want[peer])
		}
	}
}

// runBTS serves a service's merged run as the run given, landing lateBy
// after its request, and every other id as recordingBTS does.
type runBTS struct {
	recordingBTS
	run    []byte
	lateBy vtime.Stamp
}

func (b *runBTS) Fetch(loc Location, ids []string, chunkBytes int, at vtime.Stamp) ([]rpc.BatchBlockResult, vtime.Stamp, error) {
	if _, _, ok := ParseMergedBlockID(ids[0]); !ok {
		return b.recordingBTS.Fetch(loc, ids, chunkBytes, at)
	}
	b.mu.Lock()
	b.calls = append(b.calls, fetchCall{peer: loc.ExecID, ids: ids, at: at})
	b.mu.Unlock()
	return []rpc.BatchBlockResult{{Data: b.run, VT: at + b.lateBy}}, at + b.lateBy, nil
}

// TestMergedRunFallbackStartsAtMiss pins when a merged run's per-block
// fallback leaves: when the reducer learns of the miss, which is when a
// corrupt or wrong-length run lands and when a late run's deadline passes,
// never at the stamp the run's request left.
func TestMergedRunFallbackStartsAtMiss(t *testing.T) {
	const shuffleID, reduceID, at, deadline = 5, 0, vtime.Stamp(1000), 100
	bm := storage.NewBlockManager("svc")
	blocks := [][]byte{[]byte("first block"), []byte("second")}
	statuses := make([]*MapStatus, len(blocks))
	for m, b := range blocks {
		statuses[m] = NewManager(bm).WriteMapOutput(shuffleID, m, [][]byte{b}, Location{ExecID: "svc", Service: true})
	}
	whole := append(append([]byte(nil), blocks[0]...), blocks[1]...)
	flipped := append([]byte(nil), whole...)
	flipped[2] ^= 1
	perBlock := []string{"shuffle_5_0_0", "shuffle_5_1_0"}
	for _, c := range []struct {
		name     string
		run      []byte
		lateBy   vtime.Stamp
		fallback vtime.Stamp // 0: the run satisfied the group
	}{
		{"whole run", whole, 3, 0},
		{"corrupt run", flipped, 7, at + 7},
		{"short run", whole[:len(blocks[0])], 9, at + 9},
		{"late run", whole, deadline + 5, at + deadline},
	} {
		bts := &runBTS{recordingBTS: recordingBTS{served: map[string]*storage.BlockManager{"svc": bm}}, run: c.run, lateBy: c.lateBy}
		m := NewManager(storage.NewBlockManager("self"))
		m.Retry.FetchDeadline = deadline
		results, _, err := m.FetchShuffleRange(shuffleID, reduceID, statuses, "self", bts, at, 0, len(blocks))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := []fetchCall{{"svc", []string{"shuffleMerged_5_0"}, at}}
		if c.fallback != 0 {
			want = append(want, fetchCall{"svc", perBlock, c.fallback})
		}
		if !reflect.DeepEqual(bts.calls, want) {
			t.Errorf("%s: requests\n%v\nwant\n%v", c.name, bts.calls, want)
		}
		for mapID, b := range blocks {
			if !bytes.Equal(results[mapID].Data, b) {
				t.Errorf("%s: map %d landed %q, want %q", c.name, mapID, results[mapID].Data, b)
			}
		}
	}
}
