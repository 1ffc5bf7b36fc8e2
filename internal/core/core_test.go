package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

func newClusterFabric(workers int) (*fabric.Fabric, []*fabric.Node, *fabric.Node, *fabric.Node) {
	f := fabric.New(fabric.NewIBHDRModel())
	wn := make([]*fabric.Node, workers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("w%d", i))
	}
	return f, wn, f.AddNode("master"), f.AddNode("driver")
}

// launch starts an MPI cluster and returns it with the EnvState of every
// env the launch opened.
func launch(t *testing.T, workers, slots int, b spark.Backend) (*deploy.Cluster, []*EnvState, *fabric.Fabric) {
	t.Helper()
	f, wn, mn, dn := newClusterFabric(workers)
	sparkCfg := spark.DefaultConfig()
	sparkCfg.DefaultParallelism = workers * slots
	cl, states, err := launchMPI(deploy.Config{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     mn,
		DriverNode:     dn,
		SlotsPerWorker: slots,
		Backend:        b,
		Spark:          sparkCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, states, f
}

func TestIdentityResolve(t *testing.T) {
	f := fabric.New(fabric.NewZeroModel())
	n0, n1 := f.AddNode("a"), f.AddNode("b")
	w := mpi.NewWorld(f)
	parents := w.InitWorld([]*fabric.Node{n0, n1})

	id := &Identity{Kind: KindParent, World: parents.Handle(0)}
	r, err := id.resolve(KindParent, 1)
	if err != nil || r.rank != 1 || r.h.Comm() != parents {
		t.Fatalf("same-kind resolve: %+v, %v", r, err)
	}
	if _, err := id.resolve(KindChild, 0); err == nil {
		t.Fatal("resolve to child without intercomm succeeded")
	}
}

func TestDesignString(t *testing.T) {
	if DesignBasic.String() != "MPI4Spark-Basic" || DesignOptimized.String() != "MPI4Spark-Optimized" {
		t.Fatal("design names drifted")
	}
}

// twoProcEnvs builds two MPI-mode RPC environments on distinct nodes in
// one MPI world (ranks 0 and 1).
func twoProcEnvs(t *testing.T, design Design) (*rpc.Env, *rpc.Env, *fabric.Fabric) {
	t.Helper()
	envs, _, f := twoProcStates(t, design)
	return envs[0], envs[1], f
}

// twoProcStates is twoProcEnvs with each env's EnvState.
func twoProcStates(t *testing.T, design Design) ([2]*rpc.Env, [2]*EnvState, *fabric.Fabric) {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	nodes := []*fabric.Node{f.AddNode("n0"), f.AddNode("n1")}
	comm := mpi.NewWorld(f).InitWorld(nodes)
	var envs [2]*rpc.Env
	var states [2]*EnvState
	for i, n := range nodes {
		id := &Identity{Kind: KindParent, World: comm.Handle(i)}
		e, st, err := NewMPIEnv(fmt.Sprintf("env%d", i), n, "rpc", id, design, rpc.EnvConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Shutdown)
		envs[i], states[i] = e, st
	}
	return envs, states, f
}

// onlyChannel returns the one channel st's env has.
func onlyChannel(t *testing.T, st *EnvState) *netty.Channel {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.chans) != 1 {
		t.Fatalf("env has %d channels, want 1", len(st.chans))
	}
	return st.chans[0].ch
}

// fetchOne fetches a single block as what it is on the wire, a batch of one.
func fetchOne(from, to *rpc.Env, blockID string) ([]byte, vtime.Stamp, error) {
	rs, vt, err := from.FetchBlockBatch(to.Addr(), []string{blockID}, 0, 0)
	if err != nil {
		return nil, vt, err
	}
	return rs[0].Data, rs[0].VT, rs[0].Err
}

func TestBasicDesignRPC(t *testing.T) {
	e0, e1, f := twoProcEnvs(t, DesignBasic)
	if err := e1.RegisterEndpoint("Echo", func(c *rpc.Call) {
		c.Reply(append([]byte("via-mpi:"), c.Payload...), c.VT)
	}); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	resp, vt, err := e0.Ask(e1.Addr(), "Echo", []byte("hello"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "via-mpi:hello" {
		t.Fatalf("resp = %q", resp)
	}
	if vt <= 0 {
		t.Fatal("free RPC")
	}
	st := f.Stats()
	if st.MessagesFor(fabric.MPIEager) == 0 {
		t.Fatal("basic design sent no MPI messages")
	}
	// Socket traffic is establishment-only: two handshake frames.
	if st.MessagesFor(fabric.TCP) > 2 {
		t.Fatalf("basic design leaked %d TCP messages", st.MessagesFor(fabric.TCP))
	}
}

func TestBasicDesignLargeFrameUsesRendezvous(t *testing.T) {
	e0, e1, f := twoProcEnvs(t, DesignBasic)
	big := make([]byte, 512<<10)
	e1.RegisterChunkResolver(func(id string) ([]byte, bool) { return big, true })
	f.ResetStats()
	data, _, err := fetchOne(e0, e1, "blk")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(big) {
		t.Fatalf("len = %d", len(data))
	}
	if f.Stats().MessagesFor(fabric.MPIRendezvous) == 0 {
		t.Fatal("large frame did not use rendezvous")
	}
}

func TestOptimizedDesignSplitsHeaderAndBody(t *testing.T) {
	e0, e1, f := twoProcEnvs(t, DesignOptimized)
	body := make([]byte, 256<<10)
	for i := range body {
		body[i] = byte(i)
	}
	e1.RegisterChunkResolver(func(id string) ([]byte, bool) { return body, true })
	f.ResetStats()
	data, vt, err := fetchOne(e0, e1, "shuffle_0_0_0")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(body) || data[1000] != byte(1000%256) {
		t.Fatal("body corrupted crossing MPI")
	}
	if vt <= 0 {
		t.Fatal("free fetch")
	}
	st := f.Stats()
	// The body must ride MPI; the header and request stay on TCP.
	mpiBytes := st.BytesFor(fabric.MPIEager) + st.BytesFor(fabric.MPIRendezvous)
	if mpiBytes < int64(len(body)) {
		t.Fatalf("MPI carried %d bytes, want >= %d", mpiBytes, len(body))
	}
	if st.MessagesFor(fabric.TCP) == 0 {
		t.Fatal("optimized design sent no socket frames (header path missing)")
	}
	if st.BytesFor(fabric.TCP) > int64(len(body))/10 {
		t.Fatalf("TCP carried %d bytes — body leaked onto the socket", st.BytesFor(fabric.TCP))
	}
}

func TestOptimizedRPCControlStaysOnSocket(t *testing.T) {
	e0, e1, f := twoProcEnvs(t, DesignOptimized)
	if err := e1.RegisterEndpoint("E", func(c *rpc.Call) { c.Reply([]byte("ok"), c.VT) }); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	if _, _, err := e0.Ask(e1.Addr(), "E", []byte("ctl"), 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.MessagesFor(fabric.MPIEager)+st.MessagesFor(fabric.MPIRendezvous) != 0 {
		t.Fatal("control RPC leaked onto MPI in the optimized design")
	}
}

func TestLaunchClusterOptimized(t *testing.T) {
	cl, _, f := launch(t, 2, 2, spark.BackendMPIOpt)
	if len(cl.Executors) != 2 {
		t.Fatalf("executors = %d", len(cl.Executors))
	}
	// Run the canonical shuffle job.
	pairs := spark.Generate(cl.Ctx, 4, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], 200)
		for i := range out {
			out[i] = spark.Pair[int64, int64]{K: int64(i % 20), V: int64(part)}
		}
		tc.ChargeRecords(len(out), 16*len(out))
		return out
	})
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: 4,
	}
	f.ResetStats()
	grouped := spark.GroupByKey(pairs, conf)
	n, err := spark.Count(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("groups = %d", n)
	}
	st := f.Stats()
	if st.BytesFor(fabric.MPIEager)+st.BytesFor(fabric.MPIRendezvous) == 0 {
		t.Fatal("shuffle moved no bytes over MPI")
	}
	stages := cl.Ctx.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %d", len(stages))
	}
}

func TestLaunchClusterBasic(t *testing.T) {
	cl, states, f := launch(t, 2, 1, spark.BackendMPIBasic)
	pairs := spark.Generate(cl.Ctx, 2, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], 50)
		for i := range out {
			out[i] = spark.Pair[int64, int64]{K: int64(i % 5), V: 1}
		}
		return out
	})
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: 2,
	}
	f.ResetStats()
	sums := spark.ReduceByKey(pairs, conf, func(a, b int64) int64 { return a + b })
	out, err := spark.Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("keys = %d", len(out))
	}
	for _, p := range out {
		if p.V != 20 {
			t.Fatalf("key %d = %d, want 20", p.K, p.V)
		}
	}
	st := f.Stats()
	if st.MessagesFor(fabric.MPIEager) == 0 {
		t.Fatal("basic cluster moved nothing over MPI")
	}
	// Polling must have run.
	if totalPolls(states) == 0 {
		t.Fatal("no Iprobe polls recorded in the Basic design")
	}
}

// TestShuffleChunkFollowsDesign: with ShuffleChunkBytes left zero the
// launcher gives the Optimized design eager-sized fetch chunks (a 256 KiB
// block crosses as eager messages only, §IV-E) and leaves the Basic design
// its 1 MiB chunks (the block is one rendezvous message); an explicit value
// wins on both.
func TestShuffleChunkFollowsDesign(t *testing.T) {
	const blockBytes = 256 << 10
	for _, tc := range []struct {
		backend    spark.Backend
		chunkBytes int
		rendezvous bool // every fetch chunk is one rendezvous message
	}{
		{spark.BackendMPIOpt, 0, false},
		{spark.BackendMPIOpt, 1 << 20, true},
		{spark.BackendMPIBasic, 0, true},
		{spark.BackendMPIBasic, 16 << 10, false},
	} {
		f, wn, mn, dn := newClusterFabric(2)
		sparkCfg := spark.DefaultConfig()
		sparkCfg.ShuffleChunkBytes = tc.chunkBytes
		cl, err := LaunchMPICluster(deploy.Config{
			Fabric: f, WorkerNodes: wn, MasterNode: mn, DriverNode: dn,
			SlotsPerWorker: 1, Backend: tc.backend, Spark: sparkCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two mappers, two reducers, one of each per executor: each reducer
		// fetches one remote block of blockBytes and change.
		pairs := spark.Generate(cl.Ctx, 2, func(part int, tc *spark.TaskContext) []spark.Pair[int64, []byte] {
			return []spark.Pair[int64, []byte]{
				{K: 0, V: make([]byte, blockBytes)},
				{K: 1, V: make([]byte, blockBytes)},
			}
		})
		conf := spark.ShuffleConf[int64, []byte]{
			Codec: spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}},
			Ops:   spark.Int64Key{},
			Parts: 2,
		}
		before, snap := f.Stats().MessagesFor(fabric.MPIRendezvous), metrics.Snapshot()
		n, err := spark.Count(spark.GroupByKey(pairs, conf))
		cl.Close()
		if err != nil || n != 2 {
			t.Fatalf("%v chunk=%d: groups = %d, %v", tc.backend, tc.chunkBytes, n, err)
		}
		rndv := f.Stats().MessagesFor(fabric.MPIRendezvous) - before
		chunks := snap.DeltaValue("shuffle.fetch.chunks")
		switch {
		case tc.rendezvous && (chunks != 2 || rndv != chunks):
			t.Errorf("%v chunk=%d: %d chunks as %d rendezvous messages, want 2 as 2",
				tc.backend, tc.chunkBytes, chunks, rndv)
		case !tc.rendezvous && (chunks <= 2 || rndv != 0):
			t.Errorf("%v chunk=%d: %d chunks, %d rendezvous messages, want eager-sized chunks and no rendezvous",
				tc.backend, tc.chunkBytes, chunks, rndv)
		}
	}
}

// TestBasicSpinningSelectorsStretchCompute: a Basic env's selector spins
// on a core of its node for as long as the env lives, so a worker node of
// two cores hosting the worker's and the executor's env gives its tasks
// half of each core (2 + 2 threads on 2 cores), a third env (the external
// shuffle service) 2/5 of one, and a killed executor's core back; an
// Optimized node spins nothing.
func TestBasicSpinningSelectorsStretchCompute(t *testing.T) {
	run := func(b spark.Backend, service bool, want float64) vtime.Stamp {
		t.Helper()
		f, wn, mn, dn := newClusterFabric(2)
		for _, n := range wn {
			n.SetCores(2)
		}
		sparkCfg := spark.DefaultConfig()
		sparkCfg.ExternalShuffleService = service
		cl, err := LaunchMPICluster(deploy.Config{
			Fabric: f, WorkerNodes: wn, MasterNode: mn, DriverNode: dn,
			SlotsPerWorker: 1, Backend: b, Spark: sparkCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range wn {
			if got := n.ComputeStretch(); got != want {
				t.Fatalf("%v, service %v: node %s stretches compute %.2fx, want %.2fx", b, service, n.Name(), got, want)
			}
		}
		heavy := spark.Generate(cl.Ctx, 2, func(part int, tc *spark.TaskContext) []int64 {
			tc.Charge(50 * time.Millisecond) // pure compute
			return []int64{1}
		})
		start := cl.Ctx.Clock()
		if _, err := spark.Count(heavy); err != nil {
			t.Fatal(err)
		}
		took := cl.Ctx.Clock() - start
		if b == spark.BackendMPIBasic {
			cl.Executors[0].Kill()
			if got, want := wn[0].ComputeStretch(), want-0.5; got != want {
				t.Errorf("after its executor died node w0 stretches compute %.2fx, want %.2fx", got, want)
			}
		}
		cl.Close()
		if got := wn[1].ComputeStretch(); got != 1 {
			t.Errorf("%v: a closed cluster's node stretches compute %.2fx, want 1", b, got)
		}
		return took
	}
	opt := run(spark.BackendMPIOpt, false, 1)
	basic := run(spark.BackendMPIBasic, false, 2)
	run(spark.BackendMPIBasic, true, 2.5)
	if ratio := float64(basic) / float64(opt); ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("basic/opt compute ratio = %.2f, want ~2 (two spinning selectors on two cores)", ratio)
	}
}

func TestLaunchNoWorkersFails(t *testing.T) {
	f := fabric.New(fabric.NewZeroModel())
	_, err := LaunchMPICluster(deploy.Config{Fabric: f, Backend: spark.BackendMPIOpt})
	if err == nil {
		t.Fatal("launch with no workers succeeded")
	}
}

func TestBidirectionalChannelsBothDesigns(t *testing.T) {
	for _, d := range []Design{DesignBasic, DesignOptimized} {
		t.Run(d.String(), func(t *testing.T) {
			e0, e1, _ := twoProcEnvs(t, d)
			if err := e0.RegisterEndpoint("A", func(c *rpc.Call) { c.Reply([]byte("fromA"), c.VT) }); err != nil {
				t.Fatal(err)
			}
			if err := e1.RegisterEndpoint("B", func(c *rpc.Call) { c.Reply([]byte("fromB"), c.VT) }); err != nil {
				t.Fatal(err)
			}
			// Both directions dial independently: two channels, four tags.
			r1, _, err := e0.Ask(e1.Addr(), "B", nil, 0)
			if err != nil || string(r1) != "fromB" {
				t.Fatalf("0->1: %q %v", r1, err)
			}
			r2, _, err := e1.Ask(e0.Addr(), "A", nil, 0)
			if err != nil || string(r2) != "fromA" {
				t.Fatalf("1->0: %q %v", r2, err)
			}
		})
	}
}

func TestOptimizedSmallBodyStillViaMPI(t *testing.T) {
	// Even eager-sized bodies take the MPI path in the optimized design
	// (the paper routes every ChunkFetchSuccess body over MPI).
	e0, e1, f := twoProcEnvs(t, DesignOptimized)
	e1.RegisterChunkResolver(func(id string) ([]byte, bool) { return []byte("tiny"), true })
	f.ResetStats()
	data, _, err := fetchOne(e0, e1, "b")
	if err != nil || string(data) != "tiny" {
		t.Fatalf("fetch = %q, %v", data, err)
	}
	if f.Stats().MessagesFor(fabric.MPIEager) == 0 {
		t.Fatal("small body did not use the MPI eager path")
	}
}

func TestManyConcurrentFetchesOptimized(t *testing.T) {
	e0, e1, _ := twoProcEnvs(t, DesignOptimized)
	blocks := map[string][]byte{}
	for i := 0; i < 32; i++ {
		blocks[fmt.Sprintf("b%d", i)] = bytes.Repeat([]byte{byte(i)}, 10_000+i)
	}
	e1.RegisterChunkResolver(func(id string) ([]byte, bool) {
		d, ok := blocks[id]
		return d, ok
	})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("b%d", i)
			data, _, err := fetchOne(e0, e1, id)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(data, blocks[id]) {
				errs <- fmt.Errorf("block %s corrupted", id)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// captureInbound takes every body-carrying message that reaches it and hands
// it to the test: installed ahead of the dispatcher, it sees what optInbound
// rebuilt.
type captureInbound chan rpc.BodyMessage

func (c captureInbound) ChannelRead(ctx *netty.Context, msg any) {
	if m, ok := msg.(rpc.BodyMessage); ok {
		c <- m
		return
	}
	ctx.FireChannelRead(msg)
}

// TestBodyMessageRoundTripOptimized sends every rpc.BodyMessage type, at body
// sizes on both sides of the eager threshold, through optOutbound and
// optInbound over a real two-process MPI-Optimized pair. The message must
// arrive equal to the one sent (every header field, the body's bytes), its
// body counted on MPI and not on the socket; a zero-length body is
// header-only and puts nothing on MPI.
func TestBodyMessageRoundTripOptimized(t *testing.T) {
	envs, states, f := twoProcStates(t, DesignOptimized)
	if err := envs[1].RegisterEndpoint("E", func(c *rpc.Call) { c.Reply(nil, c.VT) }); err != nil {
		t.Fatal(err)
	}
	// One ask dials the channel and sees the rank handshake through on both
	// sides: its reply follows the server's handshake frame on the socket.
	if _, _, err := envs[0].Ask(envs[1].Addr(), "E", nil, 0); err != nil {
		t.Fatal(err)
	}
	client := onlyChannel(t, states[0])
	arrived := make(captureInbound, 1)
	onlyChannel(t, states[1]).Pipeline().AddBefore("dispatcher", "capture", arrived)

	const thr = mpi.DefaultEagerThreshold
	builds := []func(ref rpc.BodyRef) rpc.BodyMessage{
		func(ref rpc.BodyRef) rpc.BodyMessage {
			return &rpc.ChunkFetchSuccess{FetchID: 7, Index: 3, Missing: true, Total: 1 << 40, Offset: 5, BodyRef: ref}
		},
		func(ref rpc.BodyRef) rpc.BodyMessage {
			return &rpc.CollectiveChunk{OpID: 9, Tag: 1<<20 | 3, Src: 2, Total: 99, Offset: 11, BodyRef: ref}
		},
		func(ref rpc.BodyRef) rpc.BodyMessage {
			return &rpc.PushBlockRequest{PushID: 5, ShuffleID: 1, MapID: 2, ReduceID: 3, Sum: 0xdeadbeef, BodyRef: ref}
		},
	}
	for _, build := range builds {
		for _, size := range []int{0, 1, thr, thr + 1, 4*thr + 3} {
			var body []byte
			if size > 0 {
				body = make([]byte, size)
				for i := range body {
					body[i] = byte(i * 7)
				}
			}
			// The write owns the message it is handed (optOutbound rewrites its
			// body descriptor), so what arrives is compared with an identical
			// message built before it.
			sent, want := build(rpc.BodyRef{Body: body, BodySize: size}), build(rpc.BodyRef{Body: body, BodySize: size})
			f.ResetStats()
			client.Write(sent, 0)
			var got rpc.BodyMessage
			select {
			case got = <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s with a %d-byte body never arrived", want.Type(), size)
			}
			if ref := got.Ref(); len(ref.Body) == 0 {
				ref.Body = nil // an empty body decodes as an empty slice
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d-byte body: arrived as\n %+v\nsent\n %+v", want.Type(), size, got, want)
			}
			st := f.Stats()
			mpiMsgs := st.MessagesFor(fabric.MPIEager) + st.MessagesFor(fabric.MPIRendezvous)
			mpiBytes := st.BytesFor(fabric.MPIEager) + st.BytesFor(fabric.MPIRendezvous)
			if size == 0 && mpiMsgs != 0 {
				t.Fatalf("%s: empty body put %d messages on MPI", want.Type(), mpiMsgs)
			}
			if mpiBytes < int64(size) {
				t.Fatalf("%s, %d-byte body: MPI carried %d bytes", want.Type(), size, mpiBytes)
			}
			if tcp := st.BytesFor(fabric.TCP); tcp > 128 {
				t.Fatalf("%s, %d-byte body: the socket carried %d bytes, more than a header", want.Type(), size, tcp)
			}
		}
	}
}

// overAnnounce adds to the BodySize of every body it sees shipped to MPI.
// Placed before optOutbound in the pipeline, it sees the header on its way
// to the socket, after the body was diverted.
type overAnnounce int

func (o overAnnounce) Write(ctx *netty.Context, msg any) {
	if m, ok := msg.(rpc.BodyMessage); ok && m.Ref().BodyViaMPI {
		m.Ref().BodySize += int(o)
	}
	ctx.Write(msg)
}

// TestOptimizedOverAnnouncedBodyFailsChannel: a header whose BodySize
// claims more than the body sent makes the receiver expect pieces that never
// come. optInbound checks every piece against the size the header carves
// for it, so the receiving channel fails with a *PieceSizeError at the
// first piece that does not fit, for a pieced push and for a fetch reply
// sent as one message, instead of waiting.
func TestOptimizedOverAnnouncedBodyFailsChannel(t *testing.T) {
	const thr = mpi.DefaultEagerThreshold
	for _, c := range []struct {
		msg  rpc.BodyMessage
		size int
		want PieceSizeError
	}{
		// Pieces of thr, thr, thr, thr and 3 bytes; the header carves a
		// fifth piece of thr bytes.
		{&rpc.PushBlockRequest{PushID: 5, ShuffleID: 1}, 4*thr + 3, PieceSizeError{BodySize: 5*thr + 3, Piece: 4, Want: thr, Got: 3}},
		{&rpc.ChunkFetchSuccess{FetchID: 7, Total: 100}, 100, PieceSizeError{BodySize: 100 + thr, Piece: 0, Want: 100 + thr, Got: 100}},
	} {
		envs, states, _ := twoProcStates(t, DesignOptimized)
		if err := envs[1].RegisterEndpoint("E", func(c *rpc.Call) { c.Reply(nil, c.VT) }); err != nil {
			t.Fatal(err)
		}
		if _, _, err := envs[0].Ask(envs[1].Addr(), "E", nil, 0); err != nil {
			t.Fatal(err)
		}
		client := onlyChannel(t, states[0])
		client.Pipeline().AddBefore("mpiOptOut", "overAnnounce", overAnnounce(thr))
		c.msg.Ref().Body, c.msg.Ref().BodySize = make([]byte, c.size), c.size
		client.Write(c.msg, 0)

		states[1].mu.Lock()
		server := states[1].chans[0]
		states[1].mu.Unlock()
		deadline := time.Now().Add(5 * time.Second)
		var err error
		for err == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			server.mu.Lock()
			err = server.err
			server.mu.Unlock()
		}
		got, ok := err.(*PieceSizeError)
		if !ok {
			t.Fatalf("%s: receiving channel failed with %v, want a *PieceSizeError", c.msg.Type(), err)
		}
		c.want.Tag = got.Tag // allocated by the sender
		if *got != c.want {
			t.Fatalf("%s: %+v, want %+v", c.msg.Type(), *got, c.want)
		}
	}
}

// TestRankFailureFailsLaunch: a rank whose env cannot bind its port fails
// before the collective spawn. It aborts the MPI world, so the other ranks
// leave the spawn's collectives and the launch returns its error; the test
// needs no deadline, since a rank left waiting would hang it.
func TestRankFailureFailsLaunch(t *testing.T) {
	for _, b := range []spark.Backend{spark.BackendMPIBasic, spark.BackendMPIOpt} {
		for _, port := range []string{"worker-rpc", "master-rpc", "driver-rpc"} {
			t.Run(fmt.Sprintf("%v/%s", b, port), func(t *testing.T) {
				f, wn, mn, dn := newClusterFabric(3)
				node := map[string]*fabric.Node{"worker-rpc": wn[1], "master-rpc": mn, "driver-rpc": dn}[port]
				squatter, err := rpc.NewEnv("squatter", node, port, rpc.DefaultEnvConfig())
				if err != nil {
					t.Fatal(err)
				}
				defer squatter.Shutdown()
				cl, err := LaunchMPICluster(deploy.Config{
					Fabric: f, WorkerNodes: wn, MasterNode: mn, DriverNode: dn,
					SlotsPerWorker: 1, Backend: b, Spark: spark.DefaultConfig(),
				})
				if err == nil {
					cl.Close()
					t.Fatalf("launch succeeded with %s on %s taken", port, node.Name())
				}
				if !strings.Contains(err.Error(), port) {
					t.Fatalf("launch failed with %q, want the bind error of %s", err, port)
				}
			})
		}
	}
}
