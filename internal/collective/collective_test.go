package collective

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

type fixture struct {
	fab   *fabric.Fabric
	nodes []*fabric.Node
	envs  []*rpc.Env
	group *Group
}

func makeFixture(t *testing.T, n int, model *fabric.Model) *fixture {
	t.Helper()
	fx := &fixture{fab: fabric.New(model)}
	sts := make([]*Station, n)
	for i := 0; i < n; i++ {
		node := fx.fab.AddNode(fmt.Sprintf("n%d", i))
		env, err := rpc.NewEnv(fmt.Sprintf("env%d", i), node, "rpc", rpc.DefaultEnvConfig())
		if err != nil {
			t.Fatal(err)
		}
		fx.nodes = append(fx.nodes, node)
		fx.envs = append(fx.envs, env)
		sts[i] = NewStation(env)
	}
	t.Cleanup(func() {
		for _, e := range fx.envs {
			e.Shutdown()
		}
	})
	fx.group = NewGroup(sts)
	return fx
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestBcastSizesAndRanks(t *testing.T) {
	sizes := []int{0, 1, SmallLimit - 1, SmallLimit, SmallLimit + 1, ChunkBytes - 1, ChunkBytes, ChunkBytes + 1, 3*ChunkBytes + 17}
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, root := range []int{0, n - 1} {
			fx := makeFixture(t, n, fabric.NewZeroModel())
			for _, size := range sizes {
				data := pattern(size)
				op := NextOpID()
				var mu sync.Mutex
				got := make(map[int][]byte)
				err := fx.group.Run(op, "bcast", size, func(rank int) error {
					out, _, err := fx.group.Bcast(op, rank, root, data, 0)
					if err != nil {
						return err
					}
					mu.Lock()
					got[rank] = append([]byte(nil), out...)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d root=%d size=%d: %v", n, root, size, err)
				}
				for r := 0; r < n; r++ {
					if !bytes.Equal(got[r], data) {
						t.Fatalf("n=%d root=%d size=%d rank=%d: payload mismatch (%d vs %d bytes)",
							n, root, size, r, len(got[r]), len(data))
					}
				}
			}
		}
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, vecLen := range []int{0, 1, 7, 33, 200, ChunkBytes/8 + 3} { // the last: two-chunk edges
			fx := makeFixture(t, n, fabric.NewZeroModel())
			op := NextOpID()
			want := make([]float64, vecLen)
			inputs := make([][]byte, n)
			for r := 0; r < n; r++ {
				v := make([]float64, vecLen)
				for i := range v {
					v[i] = float64(r+1) * float64(i+1)
					want[i] += v[i]
				}
				inputs[r] = EncodeFloat64s(v)
			}
			var root []byte
			err := fx.group.Run(op, "reduce", 8*vecLen, func(rank int) error {
				out, _, err := fx.group.Reduce(op, rank, 0, inputs[rank], Float64Sum, 0)
				if rank == 0 {
					root = out
				}
				return err
			})
			if err != nil {
				t.Fatalf("n=%d len=%d: %v", n, vecLen, err)
			}
			got := DecodeFloat64s(root)
			if len(got) != vecLen {
				t.Fatalf("n=%d len=%d: got %d elements", n, vecLen, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d len=%d elem %d: got %v want %v", n, vecLen, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAllreduceSmallAndRing(t *testing.T) {
	// One element past SmallLimit takes the ring; at n=2 the largest vector's
	// ring segments are two chunks each, and n=5 is a non-power-of-two
	// non-even split.
	for _, n := range []int{1, 2, 3, 5} {
		for _, vecLen := range []int{1, 4, SmallLimit / 8, SmallLimit/8 + 1, 2*ChunkBytes/8 + 5} {
			fx := makeFixture(t, n, fabric.NewZeroModel())
			op := NextOpID()
			want := make([]float64, vecLen)
			inputs := make([][]byte, n)
			for r := 0; r < n; r++ {
				v := make([]float64, vecLen)
				for i := range v {
					v[i] = float64(r*31+i%17) / 4
					want[i] += v[i]
				}
				inputs[r] = EncodeFloat64s(v)
			}
			var mu sync.Mutex
			got := make(map[int][]float64)
			err := fx.group.Run(op, "allreduce", 8*vecLen, func(rank int) error {
				out, _, err := fx.group.Allreduce(op, rank, inputs[rank], Float64Sum, 0)
				if err != nil {
					return err
				}
				mu.Lock()
				got[rank] = DecodeFloat64s(out)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d len=%d: %v", n, vecLen, err)
			}
			for r := 0; r < n; r++ {
				if len(got[r]) != vecLen {
					t.Fatalf("n=%d len=%d rank=%d: %d elements", n, vecLen, r, len(got[r]))
				}
				for i := range got[r] {
					if got[r][i] != want[i] {
						t.Fatalf("n=%d len=%d rank=%d elem %d: got %v want %v",
							n, vecLen, r, i, got[r][i], want[i])
					}
				}
			}
		}
	}
}

// TestBcastRootLinkIsOB is the acceptance check that the pipelined chain
// broadcast ships a B-byte blob over the root's own link once — O(B) —
// rather than fanning out E copies.
func TestBcastRootLinkIsOB(t *testing.T) {
	const B = 1 << 22
	const n = 6
	fx := makeFixture(t, n, fabric.NewIBHDRModel())
	data := pattern(B)
	op := NextOpID()
	fx.nodes[0].ResetTraffic()
	err := fx.group.Run(op, "bcast", B, func(rank int) error {
		out, _, err := fx.group.Bcast(op, rank, 0, data, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, data) {
			return errors.New("payload mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := fx.nodes[0].TxBytes()
	if tx < B {
		t.Fatalf("root tx = %d < payload %d", tx, B)
	}
	// Allow framing overhead but nothing near a 2nd copy, let alone the
	// (n-1)·B a driver fan-out would push.
	if tx > B+B/4 {
		t.Fatalf("root tx = %d, want ~%d (O(B)); fan-out would be %d", tx, B, (n-1)*B)
	}
}

func TestCollectiveDeterminism(t *testing.T) {
	run := func() vtime.Stamp {
		fx := makeFixture(t, 5, fabric.NewIBHDRModel())
		data := pattern(3*ChunkBytes + 17)
		op := NextOpID()
		var mu sync.Mutex
		var maxVT vtime.Stamp
		err := fx.group.Run(op, "bcast", len(data), func(rank int) error {
			_, vt, err := fx.group.Bcast(op, rank, 0, data, 0)
			if err != nil {
				return err
			}
			mu.Lock()
			maxVT = vtime.Max(maxVT, vt)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return maxVT
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("bcast completion vt nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("vt = %v, want > 0", a)
	}
}

// TestCollectiveMetricsCounters counts one op on each side of SmallLimit, so
// both the binomial-tree paths and the chain broadcast and ring allreduce
// are pinned. On three ranks a tree moves 2 chunks per phase; the chain
// moves the 4 chunks of a 3·ChunkBytes+17 payload over 2 hops; the ring
// moves one chunk per rank per step over 2·(3-1) steps.
func TestCollectiveMetricsCounters(t *testing.T) {
	cases := []struct {
		name                         string
		bcastLen, allreduceElems     int
		bcastChunks, allreduceChunks int64
	}{
		{"tree", SmallLimit, SmallLimit / 8, 2, 4},
		{"chain-ring", 3*ChunkBytes + 17, SmallLimit/8 + 1, 8, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := makeFixture(t, 3, fabric.NewZeroModel())
			before := metrics.Snapshot()

			data := pattern(tc.bcastLen)
			op := NextOpID()
			if err := fx.group.Run(op, "bcast", len(data), func(rank int) error {
				_, _, err := fx.group.Bcast(op, rank, 0, data, 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			vec := EncodeFloat64s(make([]float64, tc.allreduceElems))
			op2 := NextOpID()
			if err := fx.group.Run(op2, "allreduce", len(vec), func(rank int) error {
				_, _, err := fx.group.Allreduce(op2, rank, vec, Float64Sum, 0)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			if d := before.DeltaValue(metrics.CollectiveBcastOps); d != 1 {
				t.Fatalf("bcast ops delta = %d, want 1", d)
			}
			if d := before.DeltaValue(metrics.CollectiveBcastBytes); d != int64(len(data)) {
				t.Fatalf("bcast bytes delta = %d, want %d", d, len(data))
			}
			if d := before.DeltaValue(metrics.CollectiveBcastChunks); d != tc.bcastChunks {
				t.Fatalf("bcast chunks delta = %d, want %d", d, tc.bcastChunks)
			}
			if d := before.DeltaValue(metrics.CollectiveAllreduceOps); d != 1 {
				t.Fatalf("allreduce ops delta = %d, want 1", d)
			}
			if d := before.DeltaValue(metrics.CollectiveAllreduceBytes); d != int64(len(vec)) {
				t.Fatalf("allreduce bytes delta = %d, want %d", d, len(vec))
			}
			if d := before.DeltaValue(metrics.CollectiveAllreduceChunks); d != tc.allreduceChunks {
				t.Fatalf("allreduce chunks delta = %d, want %d", d, tc.allreduceChunks)
			}
		})
	}
}

// TestAbortUnblocksSiblings kills one rank's op mid-collective and checks
// the others fail fast instead of hanging.
func TestAbortUnblocksSiblings(t *testing.T) {
	fx := makeFixture(t, 3, fabric.NewZeroModel())
	data := pattern(100 << 10)
	op := NextOpID()
	boom := errors.New("rank 2 died")
	err := fx.group.Run(op, "bcast", len(data), func(rank int) error {
		if rank == 2 {
			return boom
		}
		_, _, err := fx.group.Bcast(op, rank, 0, data, 0)
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestStationCloseFailsBlockedRecv shuts an environment down while a
// receive is blocked on it.
func TestStationCloseFailsBlockedRecv(t *testing.T) {
	fx := makeFixture(t, 2, fabric.NewZeroModel())
	op := NextOpID()
	errCh := make(chan error, 1)
	go func() {
		_, _, err := fx.group.Bcast(op, 1, 0, nil, 0)
		errCh <- err
	}()
	fx.envs[1].Shutdown()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestStationReleasesParkedRecv parks a receive on a slot that no chunk
// reaches and releases it, once by aborting its op and once by closing the
// station; each returns its own error. Run under -race.
func TestStationReleasesParkedRecv(t *testing.T) {
	boom := errors.New("op aborted")
	cases := []struct {
		name    string
		release func(st *Station, op int64)
		want    error
	}{
		{"AbortOp", func(st *Station, op int64) { st.AbortOp(op, boom) }, boom},
		{"Close", func(st *Station, op int64) { st.Close() }, ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := makeFixture(t, 2, fabric.NewZeroModel())
			st := fx.group.members[1]
			op := NextOpID()
			errCh := make(chan error, 1)
			go func() {
				_, err := st.recv(op, 7)
				errCh <- err
			}()
			// The slot exists once recv has looked into it; from then on
			// it is parked on the slot's signal or about to be.
			for {
				st.mu.Lock()
				s := st.slots[slotKey{op: op, tag: 7}]
				st.mu.Unlock()
				if s != nil {
					break
				}
				runtime.Gosched()
			}
			tc.release(st, op)
			if err := <-errCh; !errors.Is(err, tc.want) {
				t.Fatalf("recv returned %v, want %v", err, tc.want)
			}
		})
	}
}
