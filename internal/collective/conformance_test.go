package collective_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/spark/rpc"
)

// transportFixture is one group of collective stations built over a
// specific transport design.
type transportFixture struct {
	name  string
	envs  []*rpc.Env
	group *collective.Group
}

// buildTransport constructs n ranks over the named transport. Vanilla and
// RDMA-Spark run their RPC environments over plain socket channels (UCR
// accelerates only shuffle block transfers, not the RPC path), while the
// two MPI4Spark designs route chunk payloads through the MPI library.
func buildTransport(t *testing.T, name string, n int) *transportFixture {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	nodes := make([]*fabric.Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("%s-n%d", name, i))
	}
	fx := &transportFixture{name: name}
	sts := make([]*collective.Station, n)
	switch name {
	case "vanilla", "rdma":
		for i, node := range nodes {
			env, err := rpc.NewEnv(fmt.Sprintf("env%d", i), node, "rpc", rpc.DefaultEnvConfig())
			if err != nil {
				t.Fatal(err)
			}
			fx.envs = append(fx.envs, env)
			sts[i] = collective.NewStation(env)
		}
	case "mpi-basic", "mpi-opt":
		design := core.DesignOptimized
		if name == "mpi-basic" {
			design = core.DesignBasic
		}
		w := mpi.NewWorld(f)
		comm := w.InitWorld(nodes)
		for i, node := range nodes {
			id := &core.Identity{Kind: core.KindParent, World: comm.Handle(i)}
			env, _, err := core.NewMPIEnv(fmt.Sprintf("env%d", i), node, "rpc", id, design, rpc.EnvConfig{})
			if err != nil {
				t.Fatal(err)
			}
			fx.envs = append(fx.envs, env)
			sts[i] = collective.NewStation(env)
		}
	default:
		t.Fatalf("unknown transport %q", name)
	}
	t.Cleanup(func() {
		for _, e := range fx.envs {
			e.Shutdown()
		}
	})
	fx.group = collective.NewGroup(sts)
	return fx
}

var conformanceTransports = []string{"vanilla", "rdma", "mpi-basic", "mpi-opt"}

func confPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 7 + i>>9)
	}
	return b
}

// TestBcastConformance broadcasts the same payloads over all four
// transports and requires byte-identical results on every rank, covering
// chunk-boundary sizes, a non-power-of-two group, and the single-rank
// degenerate case.
func TestBcastConformance(t *testing.T) {
	const small, chunk = collective.SmallLimit, collective.ChunkBytes
	sizes := []int{0, 1, small - 1, small, small + 1, chunk - 1, chunk, chunk + 1, 3*chunk + 17}
	for _, n := range []int{1, 5} {
		for _, size := range sizes {
			data := confPattern(size)
			for _, tr := range conformanceTransports {
				fx := buildTransport(t, tr, n)
				op := collective.NextOpID()
				var mu sync.Mutex
				got := make([][]byte, n)
				err := fx.group.Run(op, "bcast", len(data), func(rank int) error {
					out, _, err := fx.group.Bcast(op, rank, 0, data, 0)
					if err != nil {
						return err
					}
					mu.Lock()
					got[rank] = append([]byte(nil), out...)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("%s n=%d size=%d: %v", tr, n, size, err)
				}
				for r := 0; r < n; r++ {
					if !bytes.Equal(got[r], data) {
						t.Fatalf("%s n=%d size=%d rank=%d: payload mismatch", tr, n, size, r)
					}
				}
			}
		}
	}
}

// TestAllreduceConformance checks that the allreduce result — including
// its floating-point combine order — is identical across all four
// transports for both the binomial (small) and ring (large) paths.
func TestAllreduceConformance(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		for _, vecLen := range []int{16, 16 << 10} {
			inputs := make([][]byte, n)
			for r := 0; r < n; r++ {
				v := make([]float64, vecLen)
				for i := range v {
					v[i] = float64(r+1) / float64(i+3)
				}
				inputs[r] = collective.EncodeFloat64s(v)
			}
			var reference [][]byte
			for _, tr := range conformanceTransports {
				fx := buildTransport(t, tr, n)
				op := collective.NextOpID()
				var mu sync.Mutex
				got := make([][]byte, n)
				err := fx.group.Run(op, "allreduce", len(inputs[0]), func(rank int) error {
					out, _, err := fx.group.Allreduce(op, rank, inputs[rank], collective.Float64Sum, 0)
					if err != nil {
						return err
					}
					mu.Lock()
					got[rank] = append([]byte(nil), out...)
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("%s n=%d len=%d: %v", tr, n, vecLen, err)
				}
				for r := 1; r < n; r++ {
					if !bytes.Equal(got[r], got[0]) {
						t.Fatalf("%s n=%d len=%d: rank %d disagrees with rank 0", tr, n, vecLen, r)
					}
				}
				if reference == nil {
					reference = got
				} else if !bytes.Equal(got[0], reference[0]) {
					t.Fatalf("%s n=%d len=%d: result differs from %s", tr, n, vecLen, conformanceTransports[0])
				}
			}
		}
	}
}

// TestReduceConformance runs the binomial reduce with variable-length
// payloads per rank across all transports.
func TestReduceConformance(t *testing.T) {
	n := 5
	inputs := make([][]byte, n)
	for r := 0; r < n; r++ {
		// A different length per rank, the longest three chunks.
		v := make([]float64, collective.ChunkBytes/8*r/2+100*(r+1))
		for i := range v {
			v[i] = float64(r + i)
		}
		inputs[r] = collective.EncodeFloat64s(v)
	}
	var reference []byte
	for _, tr := range conformanceTransports {
		fx := buildTransport(t, tr, n)
		op := collective.NextOpID()
		var root []byte
		err := fx.group.Run(op, "reduce", len(inputs[0]), func(rank int) error {
			out, _, err := fx.group.Reduce(op, rank, 0, inputs[rank], collective.Float64Sum, 0)
			if rank == 0 {
				root = out
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if reference == nil {
			reference = root
		} else if !bytes.Equal(root, reference) {
			t.Fatalf("%s: reduce result differs from %s", tr, conformanceTransports[0])
		}
	}
}

// TestCollectiveResultsAreKept: a collective result is an ordinary
// garbage-collected slice that may alias what another rank sent. Every rank
// keeps its Bcast and Allreduce result, uncopied, across a second op of each
// kind on the same group and a GC, and each kept result must still be the
// right one. A result has no capacity past its length, so appending to it
// reallocates instead of writing behind the root's input, which here has
// room behind it. Binomial (16 elements), then chain and ring (16 Ki).
func TestCollectiveResultsAreKept(t *testing.T) {
	const n = 4
	const slack = 64
	for _, tr := range conformanceTransports {
		fx := buildTransport(t, tr, n)
		for _, vecLen := range []int{16, 16 << 10} {
			// inputs returns each rank's vector for one op, with slack bytes
			// of capacity behind it, and their sum.
			inputs := func(seed int) ([][]byte, []byte) {
				in := make([][]byte, n)
				sum := make([]float64, vecLen)
				for r := range in {
					v := make([]float64, vecLen)
					for i := range v {
						v[i] = float64(seed*r + 1 + i)
						sum[i] += v[i]
					}
					in[r] = append(make([]byte, 0, 8*vecLen+slack), collective.EncodeFloat64s(v)...)
				}
				return in, collective.EncodeFloat64s(sum)
			}
			// run does one bcast of in[0] and one allreduce of in, keeping
			// every rank's results as returned.
			run := func(in [][]byte) (bcast, sums [][]byte) {
				bcast, sums = make([][]byte, n), make([][]byte, n)
				op := collective.NextOpID()
				if err := fx.group.Run(op, "bcast", len(in[0]), func(rank int) error {
					out, _, err := fx.group.Bcast(op, rank, 0, in[0], 0)
					bcast[rank] = out
					return err
				}); err != nil {
					t.Fatalf("%s len=%d bcast: %v", tr, vecLen, err)
				}
				op = collective.NextOpID()
				if err := fx.group.Run(op, "allreduce", len(in[0]), func(rank int) error {
					out, _, err := fx.group.Allreduce(op, rank, in[rank], collective.Float64Sum, 0)
					sums[rank] = out
					return err
				}); err != nil {
					t.Fatalf("%s len=%d allreduce: %v", tr, vecLen, err)
				}
				return bcast, sums
			}

			in, want := inputs(1)
			orig := bytes.Clone(in[0][:cap(in[0])])
			bcast, sums := run(in)
			second, _ := inputs(3)
			run(second)
			runtime.GC()
			for r := 0; r < n; r++ {
				if !bytes.Equal(bcast[r], orig[:len(in[0])]) {
					t.Fatalf("%s len=%d: rank %d's kept broadcast result changed", tr, vecLen, r)
				}
				if !bytes.Equal(sums[r], want) {
					t.Fatalf("%s len=%d: rank %d's kept allreduce result changed", tr, vecLen, r)
				}
				for _, out := range [][]byte{bcast[r], sums[r]} {
					if cap(out) != len(out) {
						t.Fatalf("%s len=%d: rank %d's result has capacity %d for %d bytes", tr, vecLen, r, cap(out), len(out))
					}
					_ = append(out, bytes.Repeat([]byte{0xEE}, slack)...)
				}
			}
			if !bytes.Equal(in[0][:cap(in[0])], orig) {
				t.Fatalf("%s len=%d: appending to a result wrote into the root's input", tr, vecLen)
			}
		}
	}
}
