package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/vtime"
)

// TestCalibrationPinned records exact virtual stamps through the model costs
// no run varies, each on the shortest path that charges it: the endpoint
// dispatch, read-event, frame-codec and Basic poll-receive costs (Fig. 8's
// ping-pong), the chunk serve cost (a warm batched fetch), the local read
// cost (a fetch of local blocks only) and the collective send, combine,
// chunk-size and small-limit constants (a two-rank Bcast and Allreduce on
// both sides of the small limit). Moving where one of those values lives
// must leave this test passing unedited; changing one must move a stamp.
// The streaming constants are pinned in package streaming
// (TestCalibrationPinnedStreaming).
func TestCalibrationPinned(t *testing.T) {
	t.Run("fig8", func(t *testing.T) {
		points, _, err := RunFig8([]int{64, 64 << 10, 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, p := range points {
			got += fmt.Sprintf("%d:%d/%d ", p.Size, p.NIO.Nanoseconds(), p.MPI.Nanoseconds())
		}
		if want := "64:58072/9507 65536:110164/22745 4194304:3395228/377908 "; got != want {
			t.Errorf("half round trips (size:nio/mpi-basic ns)\n got %s\nwant %s", got, want)
		}
	})

	t.Run("chunk serve", func(t *testing.T) {
		const chunk = 64 << 10
		f := fabric.New(fabric.NewIBHDRModel())
		a, err := rpc.NewEnv("client", f.AddNode("n0"), "rpc", rpc.DefaultEnvConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer a.Shutdown()
		b, err := rpc.NewEnv("server", f.AddNode("n1"), "rpc", rpc.DefaultEnvConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Shutdown()
		block := bytes.Repeat([]byte{7}, 3*chunk)
		b.RegisterChunkResolver(func(string) ([]byte, bool) { return block, true })
		_, warm, err := a.FetchBlockBatch(b.Addr(), []string{"b"}, chunk, 0)
		if err != nil {
			t.Fatal(err)
		}
		at := warm + vtime.Stamp(time.Millisecond)
		rs, vt, err := a.FetchBlockBatch(b.Addr(), []string{"b"}, chunk, at)
		if err != nil || rs[0].Err != nil || !bytes.Equal(rs[0].Data, block) {
			t.Fatalf("warm fetch: err %v, block err %v", err, rs[0].Err)
		}
		if got, want := int64(vt-at), int64(340428); got != want {
			t.Errorf("warm 3-chunk fetch took %d ns, want %d", got, want)
		}
	})

	t.Run("local read", func(t *testing.T) {
		m := shuffle.NewManager(storage.NewBlockManager("e"))
		loc := shuffle.Location{ExecID: "e"}
		statuses := []*shuffle.MapStatus{
			m.WriteMapOutput(1, 0, [][]byte{bytes.Repeat([]byte{1}, 1000)}, loc),
			m.WriteMapOutput(1, 1, [][]byte{bytes.Repeat([]byte{2}, 64<<10)}, loc),
		}
		const at = vtime.Stamp(time.Millisecond)
		_, vt, err := m.FetchShuffleParts(1, 0, statuses, "e", nil, at)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(vt-at), int64(11830); got != want {
			t.Errorf("local read of 1000 B and 64 KiB took %d ns, want %d", got, want)
		}
	})

	t.Run("collectives", func(t *testing.T) {
		cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: 1, Backend: spark.BackendVanilla})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		g, _ := cl.Ctx.CollectiveGroup()
		if g.Size() != 2 {
			t.Fatalf("group of %d ranks, want the driver and one executor", g.Size())
		}
		base := cl.Ctx.Clock() + vtime.Stamp(time.Millisecond)
		// run times one op on both ranks from a stamp a second past the last
		// op, so each starts on idle links, and returns each rank's duration.
		run := func(kind string, data []byte) string {
			t.Helper()
			at := base
			base += vtime.Stamp(time.Second)
			op := collective.NextOpID()
			var mu sync.Mutex
			took := make([]int64, 2)
			err := g.Run(op, kind, len(data), func(rank int) error {
				var vt vtime.Stamp
				var err error
				if kind == "bcast" {
					_, vt, err = g.Bcast(op, rank, 0, data, at)
				} else {
					_, vt, err = g.Allreduce(op, rank, data, collective.Float64Sum, at)
				}
				mu.Lock()
				took[rank] = int64(vt - at)
				mu.Unlock()
				return err
			})
			if err != nil {
				t.Fatalf("%s of %d bytes: %v", kind, len(data), err)
			}
			return fmt.Sprintf("%s/%d:%d/%d ", kind, len(data), took[0], took[1])
		}
		run("bcast", []byte{1}) // warm both directions' connections
		run("allreduce", collective.EncodeFloat64s(make([]float64, 16)))
		got := run("bcast", []byte{1}) +
			run("bcast", bytes.Repeat([]byte{3}, 3<<20+17)) +
			run("allreduce", collective.EncodeFloat64s(make([]float64, 16))) +
			run("allreduce", collective.EncodeFloat64s(make([]float64, 16<<10)))
		if want := "bcast/1:3000/56057 bcast/3145745:12000/3756137 allreduce/128:59226/112440 allreduce/131072:281569/281569 "; got != want {
			t.Errorf("per-rank op durations (op/bytes:rank0/rank1 ns)\n got %s\nwant %s", got, want)
		}
	})
}
