package shuffle

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// trackerEnvs is a driver env and an executor env on one fabric.
func trackerEnvs(t *testing.T) (driver, exec *rpc.Env) {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	driver, err := rpc.NewEnv("driver", f.AddNode("driver"), "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(driver.Shutdown)
	exec, err = rpc.NewEnv("exec", f.AddNode("exec"), "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Shutdown)
	return driver, exec
}

// testTracker registers shuffle id with n map outputs, Sizes[0] = tag+m.
func testTracker(t *testing.T, id, n int, tag int64) *MapOutputTracker {
	t.Helper()
	tr := NewMapOutputTracker()
	tr.RegisterShuffle(id, n)
	for m := 0; m < n; m++ {
		st := &MapStatus{
			Loc:   Location{ExecID: fmt.Sprintf("e%d", m), Addr: fabric.Addr{Node: "w", Port: "rpc"}},
			Sizes: []int64{tag + int64(m), 10},
			Sums:  []uint32{uint32(m), 7},
		}
		if err := tr.RegisterMapOutput(id, m, st); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// gatedTracker is a tracker endpoint whose handler takes its reply from
// reply() on entry, announces itself on entered, and answers only once the
// test sends on (or closes) gate.
type gatedTracker struct {
	asks    atomic.Int64
	entered chan struct{}
	gate    chan struct{}
}

func serveGated(t *testing.T, env *rpc.Env, reply func() []byte) *gatedTracker {
	t.Helper()
	// entered holds one token per Ask; no test here sends more than 64.
	g := &gatedTracker{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	err := env.RegisterEndpoint(TrackerEndpoint, func(c *rpc.Call) {
		g.asks.Add(1)
		data := reply()
		g.entered <- struct{}{}
		<-g.gate
		c.Reply(data, c.VT)
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// joinFetch runs call(0), holds its Ask unanswered at the gated driver, runs
// call(1..n-1) against the fetch in flight, then opens the gate for good and
// waits for every call. A caller the host schedules only after the gate
// opened finds the fetch finished (or, if it failed, gone) instead.
func (g *gatedTracker) joinFetch(n int, call func(i int)) {
	var started, finished sync.WaitGroup
	started.Add(n)
	finished.Add(n)
	run := func(i int) {
		defer finished.Done()
		started.Done()
		call(i)
	}
	go run(0)
	<-g.entered
	for i := 1; i < n; i++ {
		go run(i)
	}
	started.Wait()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let the callers reach the fetch
	}
	close(g.gate)
	finished.Wait()
}

// TestGetOutputsStampArms pins the stamp a caller leaves GetOutputs with
// against a fetch issued at 100 and answered at 250.
func TestGetOutputsStampArms(t *testing.T) {
	c := NewTrackerClient(nil, fabric.Addr{})
	f := &trackerFetch{statuses: []*MapStatus{{}}, issued: 100, ready: 250}
	f.done.Put(struct{}{})
	c.fetches[1] = f
	for _, tc := range []struct {
		name     string
		at, want vtime.Stamp
	}{
		{"hit after ready is free", 300, 300},
		{"hit at ready is free", 250, 250},
		{"the leader leaves at ready", 100, 250},
		{"joined mid-flight leaves at ready", 180, 250},
		{"stamped before the leader pays its own round trip", 40, 190},
		{"stamped at zero pays its own round trip", 0, 150},
	} {
		ss, got, err := c.GetOutputs(1, tc.at)
		if err != nil || len(ss) != 1 {
			t.Fatalf("%s: %v, %v", tc.name, ss, err)
		}
		if got != tc.want {
			t.Errorf("%s: at %d left at %d, want %d", tc.name, tc.at, got, tc.want)
		}
	}
}

// TestGetOutputsSingleFlight: callers that arrive while the first Ask is
// unanswered wait for it; one Ask crosses the fabric and every caller leaves
// with the same statuses at the same stamp.
func TestGetOutputsSingleFlight(t *testing.T) {
	const callers = 16
	driver, exec := trackerEnvs(t)
	tr := testTracker(t, 1, 3, 0)
	g := serveGated(t, driver, func() []byte { data, _ := tr.SerializeOutputs(1); return data })
	c := NewTrackerClient(exec, driver.Addr())
	asks0 := trackerAsks.Value()

	type result struct {
		ss  []*MapStatus
		vt  vtime.Stamp
		err error
	}
	results := make([]result, callers)
	g.joinFetch(callers, func(i int) {
		r := &results[i]
		r.ss, r.vt, r.err = c.GetOutputs(1, 0)
	})

	if got := g.asks.Load(); got != 1 {
		t.Fatalf("%d callers sent %d Asks, want 1", callers, got)
	}
	if got := trackerAsks.Value() - asks0; got != 1 {
		t.Fatalf("shuffle.tracker.asks moved by %d, want 1", got)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.vt != results[0].vt || r.vt <= 0 {
			t.Errorf("caller %d left at %v, the leader at %v", i, r.vt, results[0].vt)
		}
		if !reflect.DeepEqual(r.ss, results[0].ss) {
			t.Errorf("caller %d got different statuses", i)
		}
		if i > 0 && &r.ss[0] == &results[0].ss[0] {
			t.Errorf("caller %d shares the leader's slice", i)
		}
	}
}

// TestGetOutputsFailureReachesWaitersAndIsNotCached: the leader's error is
// every waiter's error, and the next call asks again.
func TestGetOutputsFailureReachesWaitersAndIsNotCached(t *testing.T) {
	const waiters = 8
	driver, exec := trackerEnvs(t)
	tr := testTracker(t, 1, 2, 0)
	var asked atomic.Bool
	g := serveGated(t, driver, func() []byte {
		if !asked.Swap(true) {
			return nil // the first Ask gets the tracker's "no outputs for this shuffle"
		}
		data, _ := tr.SerializeOutputs(1)
		return data
	})
	c := NewTrackerClient(exec, driver.Addr())

	errs := make([]error, 1+waiters)
	g.joinFetch(1+waiters, func(i int) { _, _, errs[i] = c.GetOutputs(1, 0) })

	if errs[0] == nil {
		t.Fatal("the leader's failed fetch returned no error")
	}
	// A caller scheduled so late that it missed the failed fetch refetches
	// and succeeds; one that joined must see the leader's error itself.
	joined := 0
	for i := 1; i <= waiters; i++ {
		if errs[i] == nil {
			continue
		}
		joined++
		if errs[i] != errs[0] {
			t.Errorf("waiter %d: %v, the leader: %v", i, errs[i], errs[0])
		}
	}
	if joined == waiters && g.asks.Load() != 1 {
		t.Fatalf("%d waiters joined a failed fetch yet %d Asks were sent", waiters, g.asks.Load())
	}
	if ss, _, err := c.GetOutputs(1, 0); err != nil || len(ss) != 2 {
		t.Fatalf("call after the failure: %v, %v", ss, err)
	}
	if got := g.asks.Load(); got != 2 {
		t.Fatalf("%d Asks after a failed fetch and a retry, want 2: the failure was cached or fetched twice", got)
	}
}

// TestInvalidateDuringFetchLeavesNoStaleEntry: a reply computed before an
// Invalidate and delivered after it reaches the caller that was waiting for
// it and nobody else. (At the parent commit it re-populated the cache.)
func TestInvalidateDuringFetchLeavesNoStaleEntry(t *testing.T) {
	driver, exec := trackerEnvs(t)
	tr := testTracker(t, 1, 2, 0)
	g := serveGated(t, driver, func() []byte { data, _ := tr.SerializeOutputs(1); return data })
	c := NewTrackerClient(exec, driver.Addr())

	stale := make(chan []*MapStatus, 1)
	go func() {
		ss, _, err := c.GetOutputs(1, 0)
		if err != nil {
			t.Error(err)
		}
		stale <- ss
	}()
	<-g.entered // the reply is serialized, with map 1 still on e1
	moved := &MapStatus{Loc: Location{ExecID: "e9"}, Sizes: []int64{99, 10}, Sums: []uint32{9, 7}}
	if err := tr.RegisterMapOutput(1, 1, moved); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(1)
	close(g.gate)
	if ss := <-stale; ss == nil || ss[1].Loc.ExecID != "e1" {
		t.Fatalf("the waiting caller got %+v, want the reply it waited for", ss)
	}
	ss, _, err := c.GetOutputs(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss[1].Loc.ExecID != "e9" {
		t.Fatalf("after Invalidate map 1 is on %q: the fetch in flight re-populated the cache", ss[1].Loc.ExecID)
	}
	if got := g.asks.Load(); got != 2 {
		t.Fatalf("%d Asks, want 2", got)
	}
}

// TestTrackerMutatorsDropWireForm: the cached wire form is served as long as
// nothing changes and re-encoded after each of the three mutators.
func TestTrackerMutatorsDropWireForm(t *testing.T) {
	mutators := map[string]func(tr *MapOutputTracker){
		"RegisterShuffle": func(tr *MapOutputTracker) { tr.RegisterShuffle(1, 5) },
		"RegisterMapOutput": func(tr *MapOutputTracker) {
			if err := tr.RegisterMapOutput(1, 2, &MapStatus{Loc: Location{ExecID: "e7"}, Sizes: []int64{1, 10}, Sums: []uint32{1, 7}}); err != nil {
				t.Fatal(err)
			}
		},
		"UnregisterOutputsOnExecutor": func(tr *MapOutputTracker) {
			if lost := tr.UnregisterOutputsOnExecutor("e1"); !slices.Equal(lost, []int{1}) {
				t.Fatalf("lost = %v", lost)
			}
		},
	}
	for name, mutate := range mutators {
		tr := testTracker(t, 1, 3, 0)
		tr.RegisterShuffle(2, 1) // a second shuffle on the same tracker keeps its form
		before := tr.wireOutputs(1)
		keep := tr.wireOutputs(2)
		if again := tr.wireOutputs(1); &again[0] != &before[0] {
			t.Fatalf("%s: an unchanged shuffle was encoded twice", name)
		}
		mutate(tr)
		after := tr.wireOutputs(1)
		fresh, err := tr.SerializeOutputs(1)
		if err != nil || !bytes.Equal(after, fresh) || bytes.Equal(after, before) {
			t.Fatalf("%s: serves the form encoded before it (%v)", name, err)
		}
		if again := tr.wireOutputs(2); &again[0] != &keep[0] {
			t.Errorf("%s on shuffle 1 dropped shuffle 2's form", name)
		}
	}
}

// TestSerializeOutputsExactSize: the encoder sizes its buffer exactly, holes
// included, and never hands out the cached form.
func TestSerializeOutputsExactSize(t *testing.T) {
	tr := testTracker(t, 1, 4, 0)
	tr.UnregisterOutputsOnExecutor("e2")
	if err := tr.RegisterMapOutput(1, 3, &MapStatus{Loc: Location{ExecID: "svc", Service: true}, Sizes: []int64{1, 2}, Sums: []uint32{4, 5}}); err != nil {
		t.Fatal(err)
	}
	data, err := tr.SerializeOutputs(1)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Fatalf("len %d, cap %d: the buffer was not sized exactly", len(data), cap(data))
	}
	if w := tr.wireOutputs(1); &w[0] == &data[0] || !bytes.Equal(w, data) {
		t.Fatal("SerializeOutputs and the cached wire form must be equal bytes in separate slices")
	}
	ss, err := DeserializeOutputs(data)
	if err != nil || ss[2] != nil || !ss[3].Loc.Service || !bytes.Equal(encodeOutputs(ss), data) {
		t.Fatalf("round trip: %v, %v", ss, err)
	}
}

// TestDecodersClampWireCounts: a count the payload cannot hold, a status
// whose sums do not number its partitions, statuses that number different
// partitions (a reduce task would index past one's sizes), or anything else
// encodeOutputs does not write is refused with ErrMalformedStatuses before a
// slice is made from it.
func TestDecodersClampWireCounts(t *testing.T) {
	status := func(tail ...byte) []byte { // one present status with empty strings and no flags, then tail
		return append([]byte{0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, tail...)
	}
	one := encodeOutputs([]*MapStatus{{Sizes: []int64{9}, Sums: []uint32{5}}})
	with := func(at int, b byte) []byte { // one, with its byte at replaced by b
		data := append([]byte(nil), one...)
		data[at] = b
		return data
	}
	for name, data := range map[string][]byte{
		"entries":           {0xff, 0xff, 0xff, 0xff, 0},
		"entries, one over": {0, 0, 0, 3, 0, 0},
		"sizes":             status(0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1),
		"sums":              status(0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0),
		"sums, one missing": status(0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0, 5),
		"partitions differ": encodeOutputs([]*MapStatus{
			{Sizes: []int64{9}, Sums: []uint32{5}},
			{Sizes: []int64{5, 6}, Sums: []uint32{1, 2}},
		}),
		"presence byte 2": with(4, 2),
		"flags 2":         with(17, 2),
		"trailing byte":   append(one, 0),
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := DeserializeOutputs(data)
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, ErrMalformedStatuses) {
			t.Errorf("%s: err = %v, want ErrMalformedStatuses", name, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes refusing %d", name, grew, len(data))
		}
	}
	// Counts that fit exactly are accepted.
	ok := status(0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 5)
	ss, err := DeserializeOutputs(ok)
	if err != nil || ss[0].Sizes[0] != 9 || ss[0].Sums[0] != 5 {
		t.Fatalf("exact fit: %+v, %v", ss, err)
	}
}

// TestTrackerRepliesAliasOneImmutableSlice: every reply to every executor is
// the one cached slice, and after all of them were deserialized, collected
// and the pools churned, its bytes are still what a fresh encode produces.
func TestTrackerRepliesAliasOneImmutableSlice(t *testing.T) {
	driver, exec := trackerEnvs(t)
	tr := testTracker(t, 1, 32, 1000)
	if err := ServeTracker(driver, tr); err != nil {
		t.Fatal(err)
	}
	wire := tr.wireOutputs(1)
	snapshot := append([]byte(nil), wire...)
	for i := 0; i < 8; i++ {
		data, _, err := exec.Ask(driver.Addr(), TrackerEndpoint, []byte("1"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if &data[0] != &wire[0] {
			t.Fatalf("reply %d is a copy: the by-reference path or the wire cache is broken", i)
		}
		c := NewTrackerClient(exec, driver.Addr()) // a new executor's client: one more Ask
		ss, _, err := c.GetOutputs(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ss[0].Sizes[0] = -1 // a task scribbling its own decoded view must not reach the wire form
	}
	runtime.GC()
	if again := tr.wireOutputs(1); &again[0] != &wire[0] {
		t.Fatal("the wire form was re-encoded with no mutation")
	}
	fresh, err := tr.SerializeOutputs(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, snapshot) || !bytes.Equal(wire, fresh) {
		t.Fatal("the cached wire form was written after it was stored")
	}
}

// FuzzDeserializeOutputs feeds arbitrary bytes to the tracker payload
// decoder. It must neither panic nor allocate beyond what the input can
// hold, and whatever it accepts must be exactly what encodeOutputs writes for
// the statuses it decoded, and survive encode/decode unchanged: the driver
// caches an encoded form and every executor decodes it. The statuses share
// slabs, so an append to one's Sizes or Sums must leave every other as it was.
func FuzzDeserializeOutputs(f *testing.F) {
	f.Add(encodeOutputs([]*MapStatus{
		{Loc: Location{ExecID: "exec-0", Addr: fabric.Addr{Node: "w0", Port: "rpc"}}, Sizes: []int64{512, 0}, Sums: []uint32{7, 0}},
		nil,
		{Loc: Location{ExecID: "svc", Service: true}, Sizes: []int64{1, 0}, Sums: []uint32{3, 0}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := DeserializeOutputs(data)
		if err != nil {
			return
		}
		if len(ss) > len(data) {
			t.Fatalf("%d statuses from %d bytes", len(ss), len(data))
		}
		if !bytes.Equal(encodeOutputs(ss), data) {
			t.Fatalf("accepted a payload that does not re-encode to itself (input %x)", data)
		}
		for _, st := range ss {
			if st != nil {
				_ = append(st.Sizes, -1)
				_ = append(st.Sums, 0xffffffff)
			}
		}
		if !bytes.Equal(encodeOutputs(ss), data) {
			t.Fatalf("an append to one status's sizes or sums changed another's (input %x)", data)
		}
		again, err := DeserializeOutputs(encodeOutputs(ss))
		if err != nil {
			t.Fatalf("re-decode failed: %v (input %x)", err, data)
		}
		if !reflect.DeepEqual(again, ss) {
			t.Fatalf("round trip changed the statuses (input %x)", data)
		}
	})
}
