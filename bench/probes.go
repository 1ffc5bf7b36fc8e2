package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/harness"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// Layer probes drive one layer's public functions directly, outside any
// job, at the message sizes the workloads use.
const (
	probeSmall = 512       // a groupby-small block
	probeLarge = 128 << 10 // a groupby-bulk block
)

// sized names a message size of a probe.
type sized struct {
	name string
	n    int
}

var smallLarge = []sized{{"small", probeSmall}, {"large", probeLarge}}

// values collects metric values by name.
type values map[string]float64

// timeCalls times calls invocations of fn one by one and returns the
// median in ns and the bytes allocated per call. Each invocation performs
// reps operations (more than one for operations too short for the host
// clock); both results are per operation.
func timeCalls(calls, reps int, fn func()) (medianNs, bytesPerOp float64) {
	fn() // warm caches, pools and lazily built state
	samples := make([]float64, calls)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range samples {
		t0 := time.Now()
		fn()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	runtime.ReadMemStats(&m1)
	return median(samples), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls*reps)
}

// fewer scales a call count down for probes whose single call is costly.
func fewer(calls, by int) int {
	if calls/by < 3 {
		return 3
	}
	return calls / by
}

// probe is one layer's set of direct measurements.
type probe struct {
	layer string
	run   func(calls int, out values) error
}

var probes = []probe{
	{"bytebuf", probeBytebuf},
	{"vtime", probeVtime},
	{"fabric", probeFabric},
	{"netty", probeNetty},
	{"mpi", probeMPI},
	{"ucr", probeUCR},
	{"rpc", probeRPC},
	{"shuffle", probeShuffle},
	{"spark", probeSpark},
	{"obs", probeObs},
}

// runProbes runs every layer probe with about calls timed calls each.
func runProbes(calls int, out values) error {
	for _, p := range probes {
		if err := p.run(calls, out); err != nil {
			return fmt.Errorf("probe %s: %w", p.layer, err)
		}
	}
	return nil
}

func probeBytebuf(calls int, out values) error {
	const reps = 64
	out["bytebuf.getrelease_ns"], _ = timeCalls(calls, reps, func() {
		for i := 0; i < reps; i++ {
			bytebuf.Get(probeLarge).Release()
		}
	})
	return nil
}

func probeVtime(calls int, out values) error {
	const reps = 64
	r := vtime.NewResource()
	var at vtime.Stamp
	out["vtime.occupy_ns"], _ = timeCalls(calls, reps, func() {
		for i := 0; i < reps; i++ {
			// Every other request leaves a gap, so the busy list is walked
			// and coalesced as it is under pipelined traffic.
			_, end := r.Occupy(at, time.Microsecond)
			at = end.Add(time.Duration(i&1) * time.Microsecond)
		}
	})
	return nil
}

func probeFabric(calls int, out values) error {
	const reps = 64
	f := fabric.New(fabric.NewIBHDRModel())
	a, b := f.AddNode("a"), f.AddNode("b")
	var at vtime.Stamp
	out["fabric.transfer_ns"], _ = timeCalls(calls, reps, func() {
		for i := 0; i < reps; i++ {
			_, at = f.Transfer(a, b, fabric.MPIRendezvous, probeLarge, at)
		}
	})

	l, err := b.Listen("probe")
	if err != nil {
		return err
	}
	defer l.Close()
	dc, ready, err := a.Dial(l.Addr(), fabric.TCP, 0)
	if err != nil {
		return err
	}
	defer dc.Close()
	ac, err := l.Accept()
	if err != nil {
		return err
	}
	for _, sz := range smallLarge {
		payload := make([]byte, sz.n)
		var callErr error
		ns, bytesPerOp := timeCalls(calls, 1, func() {
			if _, err := dc.Send(payload, ready); err != nil {
				callErr = err
				return
			}
			m, err := ac.Recv()
			if err != nil {
				callErr = err
				return
			}
			ready = m.VT
		})
		if callErr != nil {
			return callErr
		}
		out["fabric.conn_sendrecv_ns."+sz.name] = ns
		if sz.name == "large" {
			out["fabric.conn_alloc_x.large"] = bytesPerOp / float64(sz.n)
		}
	}
	return nil
}

// inbound adapts a function to netty.InboundHandler.
type inbound func(ctx *netty.Context, msg any)

func (f inbound) ChannelRead(ctx *netty.Context, msg any) { f(ctx, msg) }

// probeNetty echoes frames through NIO Bootstrap/ServerBootstrap channels
// whose pipelines hold the length-field codec.
func probeNetty(calls int, out values) error {
	f := fabric.New(fabric.NewIBHDRModel())
	n0, n1 := f.AddNode("n0"), f.AddNode("n1")
	g := netty.NewEventLoopGroup(2, netty.LoopConfig{})
	defer g.Shutdown()
	codec := func(ch *netty.Channel) {
		ch.Pipeline().AddLast("dec", &netty.FrameDecoder{})
		ch.Pipeline().AddLast("enc", &netty.FrameEncoder{})
	}
	srv, err := (&netty.ServerBootstrap{Group: g, Initializer: func(ch *netty.Channel) {
		codec(ch)
		ch.Pipeline().AddLast("echo", inbound(func(ctx *netty.Context, msg any) {
			ctx.Channel().Write(msg, ctx.VT())
		}))
	}}).Listen(n1, "echo")
	if err != nil {
		return err
	}
	defer srv.Close()
	type echoed struct {
		n  int
		vt vtime.Stamp
	}
	// One frame is in flight at a time; the slot holds its echo.
	got := make(chan echoed, 1)
	ch, vt, err := (&netty.Bootstrap{Group: g, Protocol: fabric.TCP, Initializer: func(ch *netty.Channel) {
		codec(ch)
		ch.Pipeline().AddLast("sink", inbound(func(ctx *netty.Context, msg any) {
			got <- echoed{msg.(*bytebuf.Buf).ReadableBytes(), ctx.VT()}
		}))
	}}).Connect(n0, srv.Addr(), 0)
	if err != nil {
		return err
	}
	defer ch.Close()
	for _, sz := range smallLarge {
		payload := make([]byte, sz.n)
		short := false
		ns, bytesPerOp := timeCalls(calls, 1, func() {
			ch.Write(bytebuf.Wrap(payload), vt)
			e := <-got
			vt = e.vt
			short = short || e.n != sz.n
		})
		if short {
			return fmt.Errorf("netty echo returned a frame of the wrong size")
		}
		out["netty.roundtrip_ns."+sz.name] = ns
		if sz.name == "large" {
			out["netty.roundtrip_alloc_x.large"] = bytesPerOp / float64(sz.n)
		}
	}
	return nil
}

// probeMPI sends from rank 0 to a rank-1 receiver loop and waits for the
// receive to complete: 512 B takes the eager protocol, 128 KiB rendezvous.
func probeMPI(calls int, out values) error {
	f := fabric.New(fabric.NewIBHDRModel())
	comm := mpi.NewWorld(f).InitWorld([]*fabric.Node{f.AddNode("n0"), f.AddNode("n1")})
	const tag = 7
	for _, sz := range []sized{{"eager", probeSmall}, {"rndv", probeLarge}} {
		n := calls + 1 // timeCalls warms with one extra call
		landed := make(chan vtime.Stamp, 1)
		go func() {
			h := comm.Handle(1)
			for i := 0; i < n; i++ {
				_, st := h.Recv(0, tag, 0)
				landed <- st.VT
			}
		}()
		payload := make([]byte, sz.n)
		h := comm.Handle(0)
		var at vtime.Stamp
		vts := make([]float64, 0, n)
		ns, bytesPerOp := timeCalls(calls, 1, func() {
			h.Send(1, tag, payload, at)
			done := <-landed
			vts = append(vts, float64(done-at))
			at = done
		})
		out["mpi.p2p_ns."+sz.name] = ns
		out["mpi.p2p_vt_ns."+sz.name] = median(vts)
		if sz.name == "rndv" {
			out["mpi.p2p_alloc_x.rndv"] = bytesPerOp / float64(sz.n)
		}
	}
	return nil
}

func probeUCR(calls int, out values) error {
	f := fabric.New(fabric.NewIBHDRModel())
	n0, n1 := f.AddNode("n0"), f.AddNode("n1")
	block := make([]byte, probeLarge)
	srv := ucr.NewServer(rdma.OpenDevice(n1), func(string) ([]byte, bool) { return block, true }, ucr.DefaultConfig())
	defer srv.Close()
	client, at, err := srv.Connect(rdma.OpenDevice(n0), 0)
	if err != nil {
		return err
	}
	defer client.Close()
	var callErr error
	vts := make([]float64, 0, calls+1)
	ns, bytesPerOp := timeCalls(calls, 1, func() {
		data, vt, err := client.FetchBlock("b", at)
		if err != nil || len(data) != len(block) {
			callErr = fmt.Errorf("ucr fetch: %d bytes, %v", len(data), err)
			return
		}
		vts = append(vts, float64(vt-at))
		at = vt
	})
	if callErr != nil {
		return callErr
	}
	out["ucr.fetch_ns.large"] = ns
	out["ucr.fetch_vt_ns.large"] = median(vts)
	out["ucr.fetch_alloc_x.large"] = bytesPerOp / probeLarge
	return nil
}

// probeRPC times Env.Ask echoes on the pingpong workload's warm links, many
// at 64 B (where a p99 needs a thousand samples) and few at 4 MiB, then a
// batched block fetch over NIO.
func probeRPC(calls int, out values) error {
	p := &pingpong{}
	if err := p.setup(defaultSeed); err != nil {
		return err
	}
	defer p.teardown()
	perSize := [3]int{calls * 10, calls, fewer(calls, 10)}
	for _, leg := range []int{legNIO, legBasic, legOpt} {
		name := legNames[leg]
		if leg == legBasic {
			name = "mpi" // Fig. 8's "Netty+MPI" is the Basic design
		}
		l := p.links[leg]
		for i, payload := range p.payloads {
			var callErr error
			samples := make([]float64, 0, perSize[i])
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for c := 0; c < perSize[i]; c++ {
				t0 := time.Now()
				reply, vt, err := l.echo(i, payload, l.vt)
				samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil || len(reply) != len(payload) {
					callErr = fmt.Errorf("ask %s %s: %d bytes, %v", name, pingSizeNames[i], len(reply), err)
					break
				}
				l.vt = vt
			}
			runtime.ReadMemStats(&m1)
			if callErr != nil {
				return callErr
			}
			key := "rpc.ask_us." + name + "." + pingSizeNames[i]
			out[key] = median(samples)
			switch i {
			case 0:
				out[key+"_p99"] = nearestRank(sorted(samples), 99)
			case 2:
				out["rpc.ask_alloc_x."+name+".4m"] =
					float64(m1.TotalAlloc-m0.TotalAlloc) / float64(perSize[i]) / float64(len(payload))
			}
		}
	}
	return probeFetchBatch(calls, out)
}

func probeFetchBatch(calls int, out values) error {
	const nBlocks = 8
	f := fabric.New(fabric.NewIBHDRModel())
	envA, err := rpc.NewEnv("client", f.AddNode("n0"), "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		return err
	}
	defer envA.Shutdown()
	envB, err := rpc.NewEnv("server", f.AddNode("n1"), "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		return err
	}
	defer envB.Shutdown()
	block := make([]byte, probeLarge)
	envB.RegisterChunkResolver(func(string) ([]byte, bool) { return block, true })
	ids := make([]string, nBlocks)
	for i := range ids {
		ids[i] = fmt.Sprintf("block-%d", i)
	}
	var at vtime.Stamp
	var callErr error
	ns, bytesPerOp := timeCalls(calls, 1, func() {
		results, vt, err := envA.FetchBlockBatch(envB.Addr(), ids, shuffle.DefaultChunkBytes, at)
		if err != nil {
			callErr = err
			return
		}
		for i := range results {
			if results[i].Err != nil || len(results[i].Data) != probeLarge {
				callErr = fmt.Errorf("fetch batch block %d: %d bytes, %v", i, len(results[i].Data), results[i].Err)
			}
			results[i].Release()
		}
		at = vt
	})
	if callErr != nil {
		return callErr
	}
	out["rpc.fetchbatch_ns.large"] = ns
	out["rpc.fetchbatch_alloc_x.large"] = bytesPerOp / (nBlocks * probeLarge)
	return nil
}

// shufflePeer is one executor-shaped endpoint built from the public
// constructors, as the shuffle conformance suite builds them.
type shufflePeer struct {
	id  string
	sm  *shuffle.Manager
	bts shuffle.BlockTransferService
	loc shuffle.Location
}

type ucrServers map[string]*ucr.Server

func (r ucrServers) UCRServer(id string) (*ucr.Server, bool) { s, ok := r[id]; return s, ok }

// shufflePeers builds two peers on one transport and returns them with
// the function that releases them.
func shufflePeers(leg int) ([2]*shufflePeer, func(), error) {
	f := fabric.New(fabric.NewIBHDRModel())
	nodes := []*fabric.Node{f.AddNode("peer0"), f.AddNode("peer1")}
	var comm *mpi.Comm
	if leg == legBasic || leg == legOpt {
		comm = mpi.NewWorld(f).InitWorld(nodes)
	}
	servers := ucrServers{}
	var peers [2]*shufflePeer
	var closers []func()
	release := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for i, nd := range nodes {
		p := &shufflePeer{id: fmt.Sprintf("exec-%d", i)}
		bm := storage.NewBlockManager(p.id)
		p.sm = shuffle.NewManager(bm)
		resolve := func(id string) ([]byte, bool) { return bm.Get(storage.BlockID(id)) }
		if leg == legUCR {
			srv := ucr.NewServer(rdma.OpenDevice(nd), resolve, ucr.DefaultConfig())
			servers[p.id] = srv
			closers = append(closers, srv.Close)
			p.bts = shuffle.NewUCRBTS(rdma.OpenDevice(nd), servers)
			p.loc = shuffle.Location{ExecID: p.id, Addr: fabric.Addr{Node: nd.Name(), Port: "ucr"}}
		} else {
			var env *rpc.Env
			var err error
			if leg == legNIO {
				env, err = rpc.NewEnv(p.id, nd, "rpc", rpc.DefaultEnvConfig())
			} else {
				design := core.DesignBasic
				if leg == legOpt {
					design = core.DesignOptimized
				}
				env, _, err = core.NewMPIEnv(p.id, nd, "rpc",
					&core.Identity{Kind: core.KindParent, World: comm.Handle(i)}, design, rpc.EnvConfig{})
			}
			if err != nil {
				release()
				return peers, nil, err
			}
			closers = append(closers, env.Shutdown)
			env.RegisterChunkResolver(resolve)
			p.bts = shuffle.NewNettyBTS(env)
			p.loc = shuffle.Location{ExecID: p.id, Addr: env.Addr()}
		}
		closers = append(closers, p.bts.Close)
		peers[i] = p
	}
	return peers, release, nil
}

// probeShuffle has a reducer fetch 8 map outputs of 64 KiB from one remote
// peer per transport (the batched path GroupByTest takes), and times the
// write of one map task's 16 blocks of 128 KiB.
func probeShuffle(calls int, out values) error {
	const shuffleID, nMaps, blockSize = 1, 8, 64 << 10
	for leg := 0; leg < numLegs; leg++ {
		peers, release, err := shufflePeers(leg)
		if err != nil {
			return err
		}
		reducer, server := peers[0], peers[1]
		statuses := make([]*shuffle.MapStatus, nMaps)
		for m := range statuses {
			block := bytes.Repeat([]byte{byte(m + 1)}, blockSize)
			statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{block}, server.loc)
		}
		var at vtime.Stamp
		var callErr error
		ns, bytesPerOp := timeCalls(calls, 1, func() {
			results, vt, err := reducer.sm.FetchShuffleParts(shuffleID, 0, statuses, reducer.id, reducer.bts, at)
			if err != nil {
				callErr = err
				return
			}
			for _, r := range results {
				if len(r.Data) != blockSize {
					callErr = fmt.Errorf("fetched %d bytes of map %d", len(r.Data), r.MapID)
				}
				if r.Release != nil {
					r.Release()
				}
			}
			at = vt
		})
		release()
		if callErr != nil {
			return fmt.Errorf("fetchparts %s: %w", legNames[leg], callErr)
		}
		out["shuffle.fetchparts_ns."+legNames[leg]] = ns
		out["shuffle.fetchparts_alloc_x."+legNames[leg]] = bytesPerOp / (nMaps * blockSize)
	}

	sm := shuffle.NewManager(storage.NewBlockManager("writer"))
	parts := make([][]byte, 16)
	for r := range parts {
		parts[r] = bytes.Repeat([]byte{byte(r + 1)}, probeLarge)
	}
	mapID := 0
	out["shuffle.write_ns"], _ = timeCalls(calls, 1, func() {
		sm.WriteMapOutput(2, mapID, parts, shuffle.Location{ExecID: "writer"})
		mapID = (mapID + 1) % 4 // overwrite a few slots instead of growing the store
	})
	return nil
}

// probeSpark times the scheduler (a 4096-task job of empty tasks on the
// groupby cluster shape), the tracker's serialization at 10 000 maps x 64
// reducers, and the pair codec at GroupByTest's record shape.
func probeSpark(calls int, out values) error {
	cl, err := harness.BuildCluster(harness.ClusterSpec{
		System: harness.Frontera, Workers: 8, SlotsPerWorker: 2, Backend: spark.BackendVanilla,
	})
	if err != nil {
		return err
	}
	const nTasks = 4096
	empty := spark.Generate(cl.Ctx, nTasks, func(int, *spark.TaskContext) []int64 { return nil })
	var callErr error
	jobNs, _ := timeCalls(fewer(calls, 50), 1, func() {
		if _, err := spark.Count(empty); err != nil {
			callErr = err
		}
	})
	cl.Close()
	if callErr != nil {
		return callErr
	}
	out["spark.task_dispatch_us"] = jobNs / nTasks / 1e3

	const nMaps, nReduce = 10000, 64
	tracker := shuffle.NewMapOutputTracker()
	tracker.RegisterShuffle(1, nMaps)
	for m := 0; m < nMaps; m++ {
		st := &shuffle.MapStatus{
			Loc:   shuffle.Location{ExecID: fmt.Sprintf("exec-%d", m%16), Addr: fabric.Addr{Node: "w", Port: "rpc"}},
			Sizes: make([]int64, nReduce),
			Sums:  make([]uint32, nReduce),
		}
		for r := range st.Sizes {
			st.Sizes[r], st.Sums[r] = int64(512+m+r), uint32(m*nReduce+r)
		}
		if err := tracker.RegisterMapOutput(1, m, st); err != nil {
			return err
		}
	}
	serNs, _ := timeCalls(fewer(calls, 10), 1, func() {
		if _, err := tracker.SerializeOutputs(1); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		return callErr
	}
	out["spark.tracker_serialize_us"] = serNs / 1e3

	codec := spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}}
	val := make([]byte, 100)
	pairs := make([]spark.Pair[int64, []byte], (1<<20)/108)
	for i := range pairs {
		pairs[i] = spark.Pair[int64, []byte]{K: int64(i), V: val}
	}
	hint := len(spark.EncodePairs(codec, pairs))
	encNs, _ := timeCalls(calls, 1, func() { spark.EncodePairsHint(codec, pairs, hint) })
	out["spark.encode_ns_per_mib"] = encNs * float64(1<<20) / float64(hint)
	return nil
}

func probeObs(calls int, out values) error {
	const reps = 64
	bus := obs.NewBus()
	bus.Subscribe(&obs.Collector{})
	e := obs.Event{Type: obs.EvTaskEnd, Job: 1, Stage: 2, Executor: "exec-0", Records: 100}
	out["obs.emit_ns"], _ = timeCalls(calls, reps, func() {
		for i := 0; i < reps; i++ {
			bus.Emit(e)
		}
	})
	return nil
}
