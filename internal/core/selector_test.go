package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
)

// The Basic selector is event-driven in host time: it scans (one Iprobe per
// mapped channel) when the MPI engine, a socket or a task wakes it, and
// parks otherwise. These tests pin that contract.

func totalPolls(cl *MPICluster) int64 {
	cl.mu.Lock()
	states := cl.states
	cl.mu.Unlock()
	var n int64
	for _, s := range states {
		s.mu.Lock()
		n += s.polls
		s.mu.Unlock()
	}
	return n
}

// TestBasicSelectorIdleMakesNoPolls: a Basic cluster that has finished a
// job has polled, and polls no more while nothing arrives.
func TestBasicSelectorIdleMakesNoPolls(t *testing.T) {
	cl, _ := launch(t, 2, 1, DesignBasic)
	nums := spark.Generate(cl.Ctx, 4, func(part int, tc *spark.TaskContext) []int64 {
		return []int64{1, 2, 3}
	})
	if n, err := spark.Count(nums); err != nil || n != 12 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if totalPolls(cl) == 0 {
		t.Fatal("no Iprobe polls recorded in the Basic design")
	}
	// The job's last frames (acks, status updates) may still be in flight:
	// wait for one quiet 10 ms, which a spinning selector never offers.
	settled := false
	for i := 0; i < 200 && !settled; i++ {
		before := totalPolls(cl)
		time.Sleep(10 * time.Millisecond)
		settled = totalPolls(cl) == before
	}
	if !settled {
		t.Fatal("selectors never went quiet after the job")
	}
	before := totalPolls(cl)
	time.Sleep(50 * time.Millisecond)
	if after := totalPolls(cl); after != before {
		t.Fatalf("idle cluster polled: %d -> %d over 50ms", before, after)
	}
}

// TestBasicSelectorNoLostWakeups: several processes send eager and
// rendezvous frames to one Basic environment in bursts separated by round
// trips, so its loop keeps parking while frames arrive. A wake-up lost
// between "scan found nothing" and "block" would strand a frame and the
// test would time out; every frame must arrive exactly once.
func TestBasicSelectorNoLostWakeups(t *testing.T) {
	const senders, perSender = 4, 140
	f := fabric.New(fabric.NewIBHDRModel())
	nodes := make([]*fabric.Node, senders+1)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i))
	}
	comm := mpi.NewWorld(f).InitWorld(nodes)
	envs := make([]*rpc.Env, len(nodes))
	for i := range envs {
		id := &Identity{Kind: KindParent, World: comm.Handle(i)}
		env, _, err := NewMPIEnv(fmt.Sprintf("env%d", i), nodes[i], "rpc", id, DesignBasic, rpc.EnvConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Shutdown()
		envs[i] = env
	}
	sink := envs[0]

	var mu sync.Mutex
	seen := make(map[uint64]int)
	all := make(chan struct{})
	if err := sink.RegisterEndpoint("Sink", func(c *rpc.Call) {
		key := binary.BigEndian.Uint64(c.Payload)
		mu.Lock()
		seen[key]++
		last := seen[key] == 1 && len(seen) == senders*perSender
		mu.Unlock()
		c.Reply(c.Payload[:8], c.VT)
		if last {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}

	small := make([]byte, 64)
	big := make([]byte, 100<<10) // above the eager threshold: rendezvous
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				src := small
				if i%5 == 4 {
					src = big
				}
				payload := append([]byte(nil), src...)
				binary.BigEndian.PutUint64(payload, uint64(s)<<32|uint64(i))
				var err error
				if i%7 == 6 {
					// A round trip: the sender falls silent until the sink's
					// loop has caught up, which is when it parks.
					_, _, err = envs[s].Ask(sink.Addr(), "Sink", payload, 0)
				} else {
					_, err = envs[s].Send(sink.Addr(), "Sink", payload, 0)
				}
				if err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	select {
	case <-all:
	case <-time.After(20 * time.Second):
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		t.Fatalf("%d of %d frames delivered: a wake-up was lost", n, senders*perSender)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for key, n := range seen {
		if n != 1 {
			t.Errorf("frame %d/%d delivered %d times", key>>32, key&0xffffffff, n)
		}
	}
}

// TestBasicEnvsSharingOneRank: a worker's environment and its shuffle
// service's share one Identity (launch.go), hence one MPI process. Both
// must be woken by arrivals at that process: with a single notifier slot
// the second AttachPolling silenced the first environment for good.
func TestBasicEnvsSharingOneRank(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	n0, n1 := f.AddNode("n0"), f.AddNode("n1")
	comm := mpi.NewWorld(f).InitWorld([]*fabric.Node{n0, n1})
	client, _, err := NewMPIEnv("client", n0, "rpc", &Identity{Kind: KindParent, World: comm.Handle(0)}, DesignBasic, rpc.EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	shared := &Identity{Kind: KindParent, World: comm.Handle(1)}
	var servers []*rpc.Env
	for _, port := range []string{"worker-rpc", "shuffle-svc-rpc"} {
		env, _, err := NewMPIEnv(port, n1, port, shared, DesignBasic, rpc.EnvConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Shutdown()
		if err := env.RegisterEndpoint("Who", func(c *rpc.Call) { c.Reply([]byte(port), c.VT) }); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, env)
	}
	done := make(chan error, 1)
	go func() {
		for round := 0; round < 20; round++ {
			for _, srv := range servers {
				resp, _, err := client.Ask(srv.Addr(), "Who", nil, 0)
				if err == nil && string(resp) != srv.Name() {
					err = fmt.Errorf("asked %s, %q answered", srv.Name(), resp)
				}
				if err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an environment sharing the rank never saw its frames")
	}
}

// TestBasicAskLatencyBudget keeps the gain from rotting: a 64-byte Ask over
// the Basic design costs about what it costs over NIO in host time (it was
// 25-150x while the selector slept between scans).
func TestBasicAskLatencyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("host-time measurement")
	}
	basic0, basic1, f := twoProcEnvs(t, DesignBasic)
	nio0, err := rpc.NewEnv("nio0", f.Node("n0"), "nio", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer nio0.Shutdown()
	nio1, err := rpc.NewEnv("nio1", f.Node("n1"), "nio", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer nio1.Shutdown()

	median := func(from, to *rpc.Env) time.Duration {
		if err := to.RegisterEndpoint("Echo", func(c *rpc.Call) { c.Reply(c.Payload, c.VT) }); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 64)
		const warm, n = 20, 200
		lat := make([]time.Duration, 0, n)
		for i := 0; i < warm+n; i++ {
			start := time.Now()
			if _, _, err := from.Ask(to.Addr(), "Echo", payload, 0); err != nil {
				t.Fatal(err)
			}
			if i >= warm {
				lat = append(lat, time.Since(start))
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[n/2]
	}
	nio := median(nio0, nio1)
	basic := median(basic0, basic1)
	t.Logf("median 64-byte Ask: nio %v, basic %v (%.1fx)", nio, basic, float64(basic)/float64(nio))
	if basic > 5*nio {
		t.Fatalf("Basic Ask median %v is more than 5x NIO's %v", basic, nio)
	}
}
