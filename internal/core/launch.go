package core

import (
	"fmt"
	"sync"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/vtime"
)

// MasterEndpoint is the master process's registration endpoint.
const MasterEndpoint = "Master"

// NewMPIEnv builds an RPC environment whose channels speak the given
// MPI4Spark design; the design sets cfg's transport and hooks. The returned
// EnvState is already attached (polling installed for Basic).
func NewMPIEnv(name string, node *fabric.Node, port string, id *Identity, design Design, cfg rpc.EnvConfig) (*rpc.Env, *EnvState, error) {
	st := NewEnvState(id, design)
	cfg.Hooks = st
	if design == DesignBasic {
		cfg.TransportFactory = st.BasicTransportFactory()
	}
	env, err := rpc.NewEnv(name, node, port, cfg)
	if err != nil {
		return nil, nil, err
	}
	if design == DesignBasic {
		st.AttachPolling(env)
	}
	return env, st, nil
}

// LaunchMPICluster performs the paper's Fig. 3 startup: wrapper ranks
// 0..W-1 become workers, rank W the master, rank W+1 the driver; workers
// exchange executor launch arguments with MPI_Allgather and everyone
// collectively spawns the executors with MPI_Comm_spawn_multiple. cfg.Backend
// picks the design (MPI-Basic or MPI-Opt); a zero cfg.Spark.ShuffleChunkBytes
// under MPI-Opt becomes the MPI eager threshold. The returned cluster holds
// a ready SparkContext.
func LaunchMPICluster(cfg deploy.Config) (*deploy.Cluster, error) {
	cl, _, err := launchMPI(cfg)
	return cl, err
}

// launchMPI is LaunchMPICluster, also returning the EnvState of every env
// the launch opened.
func launchMPI(cfg deploy.Config) (*deploy.Cluster, []*EnvState, error) {
	var design Design
	switch cfg.Backend {
	case spark.BackendMPIBasic:
		design = DesignBasic
	case spark.BackendMPIOpt:
		design = DesignOptimized
		if cfg.Spark.ShuffleChunkBytes == 0 {
			// Batched-fetch reply chunks map one-to-one onto MPI messages
			// (§IV-E). Eager chunks fly without the rendezvous RTS/CTS
			// handshake that would otherwise stall each block until the
			// receiver matches its Recv. The Basic design keeps large
			// chunks: its Iprobe-polling selector pays per-message
			// overhead, so fewer, bigger messages win even with the
			// handshake. Collective chunks stay large on both: the
			// Optimized transport itself splits each chunk body into
			// eager-sized MPI pieces.
			cfg.Spark.ShuffleChunkBytes = mpi.DefaultEagerThreshold
		}
	default:
		return nil, nil, fmt.Errorf("core: the MPI launcher runs MPI-Basic and MPI-Opt; %v launches through deploy.StartCluster", cfg.Backend)
	}
	w := len(cfg.WorkerNodes)
	if w == 0 {
		return nil, nil, fmt.Errorf("core: no worker nodes")
	}
	cl := deploy.NewCluster(cfg)
	var mu sync.Mutex
	var states []*EnvState
	var launchVT vtime.Stamp
	newEnv := func(name string, node *fabric.Node, port string, id *Identity) (*rpc.Env, error) {
		env, st, err := NewMPIEnv(name, node, port, id, design, rpc.DefaultEnvConfig())
		if err != nil {
			return nil, err
		}
		cl.AddEnv(env)
		mu.Lock()
		states = append(states, st)
		mu.Unlock()
		return env, nil
	}
	fork := func(s *deploy.Seat, id *Identity, start vtime.Stamp) (*spark.Executor, error) {
		return s.Fork(func(name, port string) (*rpc.Env, error) { return newEnv(name, s.Node, port, id) }, start)
	}

	world := mpi.NewWorld(cfg.Fabric)
	nodes := append(append([]*fabric.Node(nil), cfg.WorkerNodes...), cfg.MasterNode, cfg.DriverNode)
	worldComm := world.InitWorld(nodes)
	masterRank, driverRank := w, w+1

	services := make([]*shuffleservice.Service, w) // worker rank -> its external shuffle service
	execs := make([]*spark.Executor, w)            // by seat, so Executors[i] is exec-i on every run
	var master vtime.Reply[*rpc.Env]               // the master's env once its endpoint serves
	var driver *rpc.Env

	// executorMain is the program DPM spawns (Fig. 3 Step C): executor rank
	// i forks into worker i's seat. A lost executor is respawned into the
	// same seat under the same Identity, its rank in the DPM communicator,
	// because peers resolve routes by (kind, rank): a replacement under a
	// fresh singleton spawn would be unreachable at the old rank. Channel
	// handshakes allocate fresh tags, so messages queued for the dead
	// process never match the replacement.
	executorMain := func(child *mpi.ChildContext) error {
		i := child.World.Rank()
		id := &Identity{Kind: KindChild, World: child.World, Inter: child.Parent}
		seat := cl.NewSeat(i, cfg.WorkerNodes[i], services[i], func(s *deploy.Seat, at vtime.Stamp) (*spark.Executor, vtime.Stamp, error) {
			start := at.Add(mpi.DefaultSpawnLatency)
			e, err := fork(s, id, start)
			return e, start, err
		})
		var err error
		execs[i], err = fork(seat, id, 0)
		return err
	}

	// Step A: W+2 wrapper processes launched under mpiexec. The launch fails
	// with the lowest failing rank's error.
	var ranks vtime.Group
	for rank := 0; rank < w+2; rank++ {
		ranks.Go(func() error {
			h := worldComm.Handle(rank)
			id := &Identity{Kind: KindParent, World: h}
			vt := h.Barrier(0) // wrappers synchronize before forking roles

			// Step B: fork the Spark role for this rank.
			switch {
			case rank < w: // worker
				node := cfg.WorkerNodes[rank]
				env, err := newEnv(fmt.Sprintf("worker-%d", rank), node, "worker-rpc", id)
				if err != nil {
					return err
				}
				// External shuffle service: its own rpc.Env on the worker
				// node, sharing the worker's Identity (channels match by
				// tag, so two envs can multiplex one MPI rank). Created
				// before SpawnMultiple — the collective Allgather inside
				// the spawn guarantees every executorMain observes it.
				if cfg.Spark.ExternalShuffleService {
					sEnv, err := newEnv(fmt.Sprintf("shuffle-svc-%d", rank), node, "shuffle-svc-rpc", id)
					if err != nil {
						return fmt.Errorf("core: worker %d shuffle service env: %w", rank, err)
					}
					services[rank] = shuffleservice.New(fmt.Sprintf("shuffle-svc-%d", rank), sEnv)
				}
				// Executor launch arguments for every worker; each rank
				// builds the same list, and SpawnMultiple allgathers the
				// argument blobs before the collective spawn.
				specs := make([]mpi.SpawnSpec, 0, w)
				for wi, wn := range cfg.WorkerNodes {
					specs = append(specs, mpi.SpawnSpec{
						Node:  wn,
						Count: 1,
						Args:  []byte(fmt.Sprintf("worker=%d;slots=%d", wi, cfg.SlotsPerWorker)),
						Main:  executorMain,
					})
				}
				// Step C: collective spawn (includes the Allgather of
				// executor arguments inside SpawnMultiple).
				inter, vt2 := h.SpawnMultiple(specs, 0, vt)
				id.Inter = inter
				// Register with the master over Spark RPC.
				_, regVT, err := env.Ask(master.Wait().Addr(), MasterEndpoint,
					[]byte(fmt.Sprintf("register-worker:%d", rank)), vt2)
				if err != nil {
					return fmt.Errorf("core: worker %d registration: %w", rank, err)
				}
				mu.Lock()
				launchVT = vtime.Max(launchVT, regVT)
				mu.Unlock()
			case rank == masterRank:
				env, err := newEnv("master", cfg.MasterNode, "master-rpc", id)
				if err != nil {
					return err
				}
				if err := env.RegisterEndpoint(MasterEndpoint, func(c *rpc.Call) {
					c.Reply([]byte("ack"), c.VT.Add(time.Microsecond))
				}); err != nil {
					return err
				}
				master.Put(env)
				id.Inter, _ = h.SpawnMultiple(nil, 0, vt)
			case rank == driverRank:
				env, err := newEnv("driver", cfg.DriverNode, "driver-rpc", id)
				if err != nil {
					return err
				}
				inter, spawnVT := h.SpawnMultiple(nil, 0, vt)
				id.Inter = inter
				mu.Lock()
				launchVT = vtime.Max(launchVT, spawnVT)
				mu.Unlock()
				driver = env
			}
			return nil
		})
	}
	// The spawned executors are joined once the ranks are: the launch fails
	// with the lowest failing rank's error, else with the lowest failing
	// seat's (SpawnMultiple starts them in seat order).
	err := ranks.Wait()
	if forkErr := world.WaitSpawned(); err == nil {
		err = forkErr
	}
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	if err := cl.Start(driver, execs, launchVT); err != nil {
		cl.Close()
		return nil, nil, err
	}
	return cl, states, nil
}
