package ohb_test

import (
	"testing"

	"mpi4spark/internal/harness"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

func osuCluster(t *testing.T, backend spark.Backend) *harness.Cluster {
	t.Helper()
	cl, err := harness.BuildCluster(harness.ClusterSpec{
		System:         harness.Frontera,
		Workers:        4,
		SlotsPerWorker: 1,
		Backend:        backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestOSURejectsZeroIters: a sweep of no timed iterations is an error,
// not a sweep of one.
func TestOSURejectsZeroIters(t *testing.T) {
	cl := osuCluster(t, spark.BackendVanilla)
	if res, err := ohb.RunOSUBcast(cl.Ctx, []int{64}, 0); err == nil {
		t.Fatalf("iters 0 ran: %+v", res.Points)
	}
}

// TestOSUCollectiveLatencyOrdering is the acceptance check for the OSU
// collective suite: at 4 MiB the MPI-Optimized design must be at least as
// fast as MPI-Basic (eager chunks pipeline; rendezvous chunks handshake),
// and both MPI designs at least as fast as the socket backends, whose
// RPC path pays the full TCP overheads.
func TestOSUCollectiveLatencyOrdering(t *testing.T) {
	const size = 4 << 20
	type measurement struct{ bcast, allreduce vtime.Stamp }
	results := make(map[spark.Backend]measurement)
	for _, backend := range []spark.Backend{
		spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt,
	} {
		cl := osuCluster(t, backend)
		bc, err := ohb.RunOSUBcast(cl.Ctx, []int{size}, 2)
		if err != nil {
			t.Fatalf("%v osu_bcast: %v", backend, err)
		}
		ar, err := ohb.RunOSUAllreduce(cl.Ctx, []int{size}, 2)
		if err != nil {
			t.Fatalf("%v osu_allreduce: %v", backend, err)
		}
		m := measurement{bcast: bc.Points[0].Latency, allreduce: ar.Points[0].Latency}
		if m.bcast <= 0 || m.allreduce <= 0 {
			t.Fatalf("%v: non-positive latency %+v", backend, m)
		}
		results[backend] = m
	}
	check := func(kind string, get func(measurement) vtime.Stamp) {
		opt, basic := get(results[spark.BackendMPIOpt]), get(results[spark.BackendMPIBasic])
		vanilla, rdmaL := get(results[spark.BackendVanilla]), get(results[spark.BackendRDMA])
		if opt > basic {
			t.Errorf("%s: MPI-Opt %v slower than MPI-Basic %v", kind, opt, basic)
		}
		if basic > vanilla {
			t.Errorf("%s: MPI-Basic %v slower than Vanilla %v", kind, basic, vanilla)
		}
		if basic > rdmaL {
			t.Errorf("%s: MPI-Basic %v slower than RDMA %v", kind, basic, rdmaL)
		}
	}
	check("osu_bcast", func(m measurement) vtime.Stamp { return m.bcast })
	check("osu_allreduce", func(m measurement) vtime.Stamp { return m.allreduce })
}

// TestOSUSweepRunsAllSizes smoke-tests the full OSU size sweep on the
// Optimized design.
func TestOSUSweepRunsAllSizes(t *testing.T) {
	cl := osuCluster(t, spark.BackendMPIOpt)
	sizes := ohb.DefaultOSUSizes()
	bc, err := ohb.RunOSUBcast(cl.Ctx, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Points) != len(sizes) {
		t.Fatalf("bcast points = %d, want %d", len(bc.Points), len(sizes))
	}
	prev := vtime.Stamp(0)
	for _, p := range bc.Points[3:] { // small sizes share the latency floor
		if p.Latency < prev {
			t.Fatalf("bcast latency not monotonic past the floor: %v at %dB after %v", p.Latency, p.Bytes, prev)
		}
		prev = p.Latency
	}
	arSizes := ohb.AllreduceOSUSizes()
	ar, err := ohb.RunOSUAllreduce(cl.Ctx, arSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Points) != len(arSizes) {
		t.Fatalf("allreduce points = %d, want %d", len(ar.Points), len(arSizes))
	}
}

// TestOSUAllreduceSizesAreWholeFloats: an allreduce sums float64s, so a
// size that is not a positive multiple of 8 B is an error, not a silently
// rounded row; the allreduce sweep starts at 8 B, the broadcast's at 4 B.
func TestOSUAllreduceSizesAreWholeFloats(t *testing.T) {
	cl := osuCluster(t, spark.BackendVanilla)
	for _, size := range []int{0, 4, 12} {
		if res, err := ohb.RunOSUAllreduce(cl.Ctx, []int{size}, 1); err == nil {
			t.Fatalf("allreduce of %d B ran: %+v", size, res.Points)
		}
	}
	bc, err := ohb.RunOSUBcast(cl.Ctx, ohb.DefaultOSUSizes()[:1], 1)
	if err != nil || bc.Points[0].Bytes != 4 {
		t.Fatalf("bcast sweep starts at %+v, %v; want 4 B", bc, err)
	}
	ar, err := ohb.RunOSUAllreduce(cl.Ctx, ohb.AllreduceOSUSizes()[:1], 1)
	if err != nil || ar.Points[0].Bytes != 8 {
		t.Fatalf("allreduce sweep starts at %+v, %v; want 8 B", ar, err)
	}
}
