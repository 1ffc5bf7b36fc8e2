package core

import (
	"fmt"
	"sync"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/vtime"
)

// MasterEndpoint is the master process's registration endpoint.
const MasterEndpoint = "Master"

// ClusterConfig describes an MPI4Spark cluster launch (the Fig. 3 flow).
type ClusterConfig struct {
	// Fabric is the simulated interconnect; the launcher adds no nodes.
	Fabric *fabric.Fabric
	// WorkerNodes hosts one worker process (and its executors) each.
	WorkerNodes []*fabric.Node
	// MasterNode and DriverNode host the master and driver wrapper ranks.
	MasterNode, DriverNode *fabric.Node
	// SlotsPerWorker is the executor core count (spark_executor_cores).
	SlotsPerWorker int
	// Design selects Basic or Optimized.
	Design Design
	// Spark is the SparkContext configuration; its CPU is the executors'
	// compute model. A zero ShuffleChunkBytes under the Optimized design
	// becomes the MPI eager threshold (see LaunchMPICluster).
	Spark spark.Config
}

// MPICluster is a launched MPI4Spark cluster.
type MPICluster struct {
	World     *mpi.World
	Ctx       *spark.Context
	Executors []*spark.Executor
	DriverEnv *rpc.Env
	MasterEnv *rpc.Env

	envs     []*rpc.Env
	states   []*EnvState
	mu       sync.Mutex
	seats    map[string]*execSeat            // current executor id -> its DPM seat
	spawned  []*spark.Executor               // respawned replacements (Executors keeps the initial set)
	services map[int]*shuffleservice.Service // worker rank -> its external shuffle service
}

// execSeat records what LaunchMPICluster knew when it spawned one
// executor rank, so a replacement can be respawned into the same seat. A
// respawn reuses the seat's MPI identity — the dead process's rank in the
// DPM communicator — because peers resolve routes by (kind, rank): a
// replacement under a fresh singleton spawn would be unreachable at the
// old rank. Channel handshakes allocate fresh tags, so messages queued
// for the dead process are never matched by the replacement.
type execSeat struct {
	idx     int
	node    *fabric.Node
	id      *Identity
	svc     *shuffleservice.Service
	attempt int
}

// maxRespawnAttempts caps replacements per seat (Spark standalone's
// relaunch cap has the same role): a seat whose replacements keep dying
// stops consuming spawns.
const maxRespawnAttempts = 10

// Close shuts every executor and environment down.
func (c *MPICluster) Close() {
	if c.Ctx != nil {
		c.Ctx.Close()
	}
	for _, e := range c.Executors {
		e.Close()
	}
	c.mu.Lock()
	spawned := append([]*spark.Executor(nil), c.spawned...)
	c.mu.Unlock()
	for _, e := range spawned {
		e.Close()
	}
	for _, env := range c.envs {
		env.Shutdown()
	}
}

func (c *MPICluster) addEnv(env *rpc.Env, st *EnvState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.envs = append(c.envs, env)
	c.states = append(c.states, st)
}

func (c *MPICluster) setService(workerIdx int, s *shuffleservice.Service) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.services == nil {
		c.services = make(map[int]*shuffleservice.Service)
	}
	c.services[workerIdx] = s
}

func (c *MPICluster) serviceFor(workerIdx int) *shuffleservice.Service {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.services[workerIdx]
}

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
// collectively spawns the executors with MPI_Comm_spawn_multiple. The
// returned cluster holds a ready SparkContext whose communication follows
// cfg.Design.
func LaunchMPICluster(cfg ClusterConfig) (*MPICluster, error) {
	w := len(cfg.WorkerNodes)
	if w == 0 {
		return nil, fmt.Errorf("core: no worker nodes")
	}
	if cfg.SlotsPerWorker < 1 {
		cfg.SlotsPerWorker = 1
	}
	if cfg.Design == DesignOptimized && cfg.Spark.ShuffleChunkBytes == 0 {
		// Batched-fetch reply chunks map one-to-one onto MPI messages
		// (§IV-E). Eager chunks fly without the rendezvous RTS/CTS
		// handshake that would otherwise stall each block until the
		// receiver matches its Recv. The Basic design keeps large chunks:
		// its Iprobe-polling selector pays per-message overhead, so fewer,
		// bigger messages win even with the handshake. Collective chunks
		// stay large on both: the Optimized transport itself splits each
		// chunk body into eager-sized MPI pieces.
		cfg.Spark.ShuffleChunkBytes = mpi.DefaultEagerThreshold
	}

	world := mpi.NewWorld(cfg.Fabric)
	nodes := append(append([]*fabric.Node(nil), cfg.WorkerNodes...), cfg.MasterNode, cfg.DriverNode)
	worldComm := world.InitWorld(nodes)
	masterRank, driverRank := w, w+1

	cluster := &MPICluster{World: world, seats: make(map[string]*execSeat)}
	var launchMu sync.Mutex
	var launchVT vtime.Stamp
	observeLaunch := func(vt vtime.Stamp) {
		launchMu.Lock()
		if vt > launchVT {
			launchVT = vt
		}
		launchMu.Unlock()
	}
	execCh := make(chan *spark.Executor, w)
	masterReady := make(chan *rpc.Env, 1)
	errCh := make(chan error, w+2)

	// executorMain is the program DPM spawns (Fig. 3 Step C).
	executorMain := func(child *mpi.ChildContext) {
		// One executor per worker: executor rank i runs on worker i.
		execIdx := child.World.Rank()
		node := cfg.WorkerNodes[execIdx]
		id := &Identity{Kind: KindChild, World: child.World, Inter: child.Parent}
		env, st, err := NewMPIEnv(
			fmt.Sprintf("exec-%d", execIdx), node,
			fmt.Sprintf("exec-rpc-%d", execIdx), id, cfg.Design, rpc.DefaultEnvConfig())
		if err != nil {
			errCh <- fmt.Errorf("core: executor %d env: %w", execIdx, err)
			return
		}
		cluster.addEnv(env, st)
		svc := cluster.serviceFor(execIdx)
		e := spark.NewExecutor(spark.ExecutorConfig{
			ID:             fmt.Sprintf("exec-%d", execIdx),
			Node:           node,
			Env:            env,
			Slots:          cfg.SlotsPerWorker,
			CPU:            cfg.Spark.CPU,
			ShuffleService: svc,
		})
		cluster.mu.Lock()
		cluster.seats[e.ID()] = &execSeat{idx: execIdx, node: node, id: id, svc: svc}
		cluster.mu.Unlock()
		execCh <- e
	}

	var wg sync.WaitGroup
	ctxCh := make(chan *spark.Context, 1)

	// Step A: W+2 wrapper processes launched under mpiexec.
	for r := 0; r < w+2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			h := worldComm.Handle(rank)
			id := &Identity{Kind: KindParent, World: h}
			vt := h.Barrier(0) // wrappers synchronize before forking roles

			// Step B: fork the Spark role for this rank.
			switch {
			case rank < w: // worker
				env, st, err := NewMPIEnv(
					fmt.Sprintf("worker-%d", rank), cfg.WorkerNodes[rank],
					"worker-rpc", id, cfg.Design, rpc.DefaultEnvConfig())
				if err != nil {
					errCh <- err
					return
				}
				cluster.addEnv(env, st)
				// External shuffle service: its own rpc.Env on the worker
				// node, sharing the worker's Identity (channels match by
				// tag, so two envs can multiplex one MPI rank). Created
				// before SpawnMultiple — the collective Allgather inside
				// the spawn guarantees every executorMain observes it.
				if cfg.Spark.ExternalShuffleService {
					sEnv, sSt, err := NewMPIEnv(
						fmt.Sprintf("shuffle-svc-%d", rank), cfg.WorkerNodes[rank],
						"shuffle-svc-rpc", id, cfg.Design, rpc.DefaultEnvConfig())
					if err != nil {
						errCh <- fmt.Errorf("core: worker %d shuffle service env: %w", rank, err)
						return
					}
					cluster.addEnv(sEnv, sSt)
					cluster.setService(rank, shuffleservice.New(fmt.Sprintf("shuffle-svc-%d", rank), sEnv))
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
				master := <-masterReady
				masterReady <- master
				_, regVT, err := env.Ask(master.Addr(), MasterEndpoint,
					[]byte(fmt.Sprintf("register-worker:%d", rank)), vt2)
				if err != nil {
					errCh <- fmt.Errorf("core: worker %d registration: %w", rank, err)
					return
				}
				observeLaunch(regVT)
			case rank == masterRank:
				env, st, err := NewMPIEnv("master", cfg.MasterNode, "master-rpc", id, cfg.Design, rpc.DefaultEnvConfig())
				if err != nil {
					errCh <- err
					return
				}
				cluster.addEnv(env, st)
				registered := 0
				var mu sync.Mutex
				if err := env.RegisterEndpoint(MasterEndpoint, func(c *rpc.Call) {
					mu.Lock()
					registered++
					mu.Unlock()
					c.Reply([]byte("ack"), c.VT.Add(time.Microsecond))
				}); err != nil {
					errCh <- err
					return
				}
				cluster.MasterEnv = env
				masterReady <- env
				inter, _ := h.SpawnMultiple(nil, 0, vt)
				id.Inter = inter
			case rank == driverRank:
				env, st, err := NewMPIEnv("driver", cfg.DriverNode, "driver-rpc", id, cfg.Design, rpc.DefaultEnvConfig())
				if err != nil {
					errCh <- err
					return
				}
				cluster.addEnv(env, st)
				cluster.DriverEnv = env
				inter, spawnVT := h.SpawnMultiple(nil, 0, vt)
				id.Inter = inter
				observeLaunch(spawnVT)

				// Collect executors and build the SparkContext. They arrive
				// in goroutine order; placing each at its DPM seat index
				// makes Executors()[i] exec-i on every run, so round-robin
				// task placement does not change from launch to launch.
				execs := make([]*spark.Executor, w)
				for i := 0; i < w; i++ {
					e := <-execCh
					cluster.mu.Lock()
					execs[cluster.seats[e.ID()].idx] = e
					cluster.mu.Unlock()
				}
				sctx, err := spark.NewContext(cfg.Spark, env, execs)
				if err != nil {
					errCh <- err
					return
				}
				cluster.Executors = execs
				ctxCh <- sctx
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		cluster.Close()
		return nil, err
	default:
	}
	select {
	case cluster.Ctx = <-ctxCh:
	default:
		cluster.Close()
		return nil, fmt.Errorf("core: driver did not produce a SparkContext")
	}
	cluster.Ctx.SetExecutorReplacer(cluster.respawnReplacer(cfg))
	// Virtual time is global: jobs begin after the launch completed.
	cluster.Ctx.AdvanceClock(launchVT)
	return cluster, nil
}

// respawnReplacer builds the MPI backends' executor replacement hook: the
// paper's launcher owns process management through MPI DPM, so a lost
// executor is respawned into its original DPM seat (same communicator
// rank, same node, fresh RPC environment) after the spawn latency. The
// respawn is refused when the seat's node itself is down — DPM cannot
// place a process on a dead host.
func (c *MPICluster) respawnReplacer(cfg ClusterConfig) spark.ExecutorReplacer {
	return func(lost *spark.Executor, at vtime.Stamp) (*spark.Executor, vtime.Stamp, error) {
		c.mu.Lock()
		seat := c.seats[lost.ID()]
		if seat == nil || seat.attempt >= maxRespawnAttempts {
			c.mu.Unlock()
			return nil, at, fmt.Errorf("core: no respawnable seat for executor %s", lost.ID())
		}
		if cfg.Fabric.Failed(seat.node.Name()) {
			c.mu.Unlock()
			return nil, at, fmt.Errorf("core: node %s hosting %s is down", seat.node.Name(), lost.ID())
		}
		seat.attempt++
		attempt := seat.attempt
		c.mu.Unlock()

		name := fmt.Sprintf("exec-%d.%d", seat.idx, attempt)
		startVT := at.Add(mpi.DefaultSpawnLatency)
		env, st, err := NewMPIEnv(name, seat.node,
			fmt.Sprintf("exec-rpc-%d.%d", seat.idx, attempt), seat.id, cfg.Design, rpc.DefaultEnvConfig())
		if err != nil {
			return nil, at, fmt.Errorf("core: respawning %s: %w", lost.ID(), err)
		}
		c.addEnv(env, st)
		e := spark.NewExecutor(spark.ExecutorConfig{
			ID:             name,
			Node:           seat.node,
			Env:            env,
			Slots:          cfg.SlotsPerWorker,
			CPU:            cfg.Spark.CPU,
			StartVT:        startVT,
			ShuffleService: seat.svc,
		})
		c.mu.Lock()
		c.seats[name] = seat
		delete(c.seats, lost.ID())
		c.spawned = append(c.spawned, e)
		c.mu.Unlock()
		return e, startVT, nil
	}
}
