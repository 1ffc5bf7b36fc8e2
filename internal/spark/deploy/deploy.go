// Package deploy launches a Spark cluster on the simulated fabric and holds
// what every launch flow shares: one Config, whose Backend picks the flow,
// one Cluster, and one executor Seat per worker, which names, builds and
// records every executor its worker forks and is the cluster's one executor
// replacer. StartCluster is Spark's standalone flow (a master, per-node
// workers that fork executors on command, a driver that registers its
// application), which Vanilla Spark and RDMA-Spark use; MPI4Spark launches
// the same Cluster through the paper's mpiexec wrapper flow in
// internal/core (core.LaunchMPICluster).
package deploy

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// Endpoint names for the standalone deploy control plane.
const (
	MasterEndpoint = "Master"
	WorkerEndpoint = "Worker"
)

// Config describes a cluster.
type Config struct {
	// Fabric is the simulated interconnect (nodes already added).
	Fabric *fabric.Fabric
	// WorkerNodes hosts one worker (and its executors) each.
	WorkerNodes []*fabric.Node
	// MasterNode and DriverNode host the master and driver.
	MasterNode, DriverNode *fabric.Node
	// SlotsPerWorker is spark_executor_cores.
	SlotsPerWorker int
	// Backend selects the transport and with it the launch flow: Vanilla
	// (Netty NIO) and RDMA (UCR shuffle) launch through StartCluster,
	// MPI-Basic and MPI-Opt through core.LaunchMPICluster.
	Backend spark.Backend
	// Spark configures the SparkContext; its CPU is the executors' compute
	// model. A zero ShuffleChunkBytes under MPI-Opt becomes the MPI eager
	// threshold (see core.LaunchMPICluster).
	Spark spark.Config
	// UCR tunes the RDMA backend's runtime (zero value selects defaults).
	UCR ucr.Config
}

// maxForks caps the executors one seat forks, its first included (Spark
// standalone's relaunch cap has the same role): a seat whose replacements
// keep dying stops consuming launches.
const maxForks = 11

// Cluster is a running deployment.
type Cluster struct {
	Ctx       *spark.Context
	Executors []*spark.Executor

	cfg     Config
	ucr     ucrRegistry
	mu      sync.Mutex
	envs    []*rpc.Env
	forked  []*spark.Executor // every executor a seat forked, replacements included
	seats   map[string]*Seat  // executor id -> the seat that forked it
	closers []func()          // non-env resources (service UCR servers)
}

// NewCluster returns an empty cluster for a launch flow to fill: it records
// the flow's envs (AddEnv), opens a seat per worker (NewSeat) and finally
// starts the SparkContext (Start).
func NewCluster(cfg Config) *Cluster {
	if cfg.SlotsPerWorker < 1 {
		cfg.SlotsPerWorker = 1
	}
	return &Cluster{cfg: cfg, ucr: ucrRegistry{servers: make(map[string]*ucr.Server)}, seats: make(map[string]*Seat)}
}

// AddEnv records an env for Close to shut down.
func (c *Cluster) AddEnv(env *rpc.Env) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.envs = append(c.envs, env)
}

// Start builds the SparkContext over the launched executors, with the
// cluster's seats as its executor replacer. Every executor registers with
// the driver at the virtual time the launch completed, and the context's
// clock starts at the last registration: jobs begin after deployment.
func (c *Cluster) Start(driver *rpc.Env, execs []*spark.Executor, launched vtime.Stamp) error {
	ctx, err := spark.NewContext(c.cfg.Spark, driver, execs, launched)
	if err != nil {
		return err
	}
	ctx.SetExecutorReplacer(c.replace)
	c.Ctx, c.Executors = ctx, execs
	return nil
}

// Close shuts everything down and returns once every thread it started has.
func (c *Cluster) Close() {
	if c.Ctx != nil {
		c.Ctx.Close()
	}
	c.mu.Lock()
	forked, envs := c.forked, c.envs
	c.mu.Unlock()
	for _, e := range forked {
		e.Close()
	}
	for _, fn := range c.closers {
		fn()
	}
	for _, env := range envs {
		env.Shutdown()
	}
	for _, e := range forked {
		e.Wait()
	}
}

// Seat is one worker's executor seat: where the worker's executor forks,
// at launch and again after every loss. Its first fork is exec-N on port
// exec-rpc-N, its K-th replacement exec-N.K on exec-rpc-N.K, so a
// replacement never collides with its predecessor's id or port.
type Seat struct {
	Node *fabric.Node

	worker int
	svc    *shuffleservice.Service // the node's external shuffle service, or nil
	cl     *Cluster
	launch Launch
	forks  int
	last   *spark.Executor // the newest fork
}

// Launch is a launch flow's path to a seat's next fork, started at a
// virtual time; it ends in Seat.Fork and returns the executor with the
// virtual time it came up.
type Launch func(s *Seat, at vtime.Stamp) (*spark.Executor, vtime.Stamp, error)

// NewSeat opens worker's seat on node; launch forks its replacements.
func (c *Cluster) NewSeat(worker int, node *fabric.Node, svc *shuffleservice.Service, launch Launch) *Seat {
	return &Seat{Node: node, worker: worker, svc: svc, cl: c, launch: launch}
}

// Fork starts the seat's next executor: newEnv opens the executor
// process's env under the fork's name and port, and the executor's slots
// start at virtual time start. The executor and its env are the cluster's
// to close.
func (s *Seat) Fork(newEnv func(name, port string) (*rpc.Env, error), start vtime.Stamp) (*spark.Executor, error) {
	c := s.cl
	c.mu.Lock()
	name, port := fmt.Sprintf("exec-%d", s.worker), fmt.Sprintf("exec-rpc-%d", s.worker)
	if s.forks > 0 {
		name, port = fmt.Sprintf("%s.%d", name, s.forks), fmt.Sprintf("%s.%d", port, s.forks)
	}
	s.forks++
	c.mu.Unlock()
	env, err := newEnv(name, port)
	if err != nil {
		return nil, fmt.Errorf("deploy: forking %s on %s: %w", name, s.Node.Name(), err)
	}
	e := spark.NewExecutor(spark.ExecutorConfig{
		ID:             name,
		Node:           s.Node,
		Env:            env,
		Slots:          c.cfg.SlotsPerWorker,
		CPU:            c.cfg.Spark.CPU,
		UseUCR:         c.cfg.Backend == spark.BackendRDMA,
		UCRRegistry:    &c.ucr,
		UCRConfig:      c.cfg.UCR,
		StartVT:        start,
		ShuffleService: s.svc,
	})
	if srv := e.UCRServer(); srv != nil {
		c.ucr.add(name, srv)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.envs = append(c.envs, env)
	c.forked = append(c.forked, e)
	c.seats[name] = s
	s.last = e
	return e, nil
}

// replace is the cluster's spark.ExecutorReplacer. It refuses, before
// anything is sent, a seat whose node is down (no launcher can place a
// process on a dead host) or that has forked maxForks executors, and
// otherwise asks the launch flow for the seat's next fork.
func (c *Cluster) replace(lost *spark.Executor, at vtime.Stamp) (*spark.Executor, vtime.Stamp, error) {
	c.mu.Lock()
	s := c.seats[lost.ID()]
	forks := 0
	if s != nil {
		forks = s.forks
	}
	c.mu.Unlock()
	switch {
	case s == nil:
		return nil, at, fmt.Errorf("deploy: no seat forked executor %s", lost.ID())
	case forks >= maxForks:
		return nil, at, fmt.Errorf("deploy: the seat of %s has forked its %d executors", lost.ID(), maxForks)
	case c.cfg.Fabric.Failed(s.Node.Name()):
		return nil, at, fmt.Errorf("deploy: node %s hosting %s is down", s.Node.Name(), lost.ID())
	}
	return s.launch(s, at)
}

// ucrRegistry resolves UCR servers across the cluster's executors.
type ucrRegistry struct {
	mu      sync.Mutex
	servers map[string]*ucr.Server
}

func (r *ucrRegistry) UCRServer(id string) (*ucr.Server, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.servers[id]
	return s, ok
}

func (r *ucrRegistry) add(id string, s *ucr.Server) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.servers[id] = s
}

// executorForkCost is a worker's executor fork (JVM spin-up is far larger;
// this covers the process-management path).
const executorForkCost = 2 * time.Millisecond

// StartCluster brings up the standalone cluster: the master starts, every
// worker registers with it over RPC, the driver submits its application,
// the master commands each worker to launch an executor, and the driver
// builds the SparkContext over them. A replacement takes the same
// launch-executor command.
func StartCluster(cfg Config) (*Cluster, error) {
	if cfg.Backend != spark.BackendVanilla && cfg.Backend != spark.BackendRDMA {
		return nil, fmt.Errorf("deploy: standalone mode supports Vanilla and RDMA backends; %v requires the MPI launcher in internal/core", cfg.Backend)
	}
	if len(cfg.WorkerNodes) == 0 {
		return nil, fmt.Errorf("deploy: no worker nodes")
	}
	cl := NewCluster(cfg)
	fail := func(err error) (*Cluster, error) {
		cl.Close()
		return nil, err
	}
	newEnv := func(name string, node *fabric.Node, port string) (*rpc.Env, error) {
		env, err := rpc.NewEnv(name, node, port, rpc.DefaultEnvConfig())
		if err == nil {
			cl.AddEnv(env)
		}
		return env, err
	}

	master, err := newEnv("master", cfg.MasterNode, "master-rpc")
	if err != nil {
		return fail(err)
	}
	var mu sync.Mutex
	workers := 0
	if err := master.RegisterEndpoint(MasterEndpoint, func(c *rpc.Call) {
		mu.Lock()
		defer mu.Unlock()
		switch p := string(c.Payload); {
		case strings.HasPrefix(p, "register-worker:"):
			workers++
			c.Reply([]byte(fmt.Sprintf("registered:%d", workers)), c.VT.Add(2*time.Microsecond))
		case p == "register-app":
			c.Reply([]byte(fmt.Sprintf("app-accepted:%d", workers)), c.VT.Add(2*time.Microsecond))
		default:
			c.Reply(nil, c.VT)
		}
	}); err != nil {
		return fail(err)
	}

	// Workers: each registers with the master and forks its seat's next
	// executor when the master commands launch-executor.
	var launchVT vtime.Stamp
	seats := make([]*Seat, len(cfg.WorkerNodes))
	for i, node := range cfg.WorkerNodes {
		worker, err := newEnv(fmt.Sprintf("worker-%d", i), node, "worker-rpc")
		if err != nil {
			return fail(err)
		}
		// External shuffle service: one per worker node, outside any
		// executor process, so a forked replacement inherits it and an
		// executor death never takes pushed map outputs with it.
		var svc *shuffleservice.Service
		if cfg.Spark.ExternalShuffleService {
			sEnv, err := newEnv(fmt.Sprintf("shuffle-svc-%d", i), node, fmt.Sprintf("shuffle-svc-rpc-%d", i))
			if err != nil {
				return fail(err)
			}
			svc = shuffleservice.New(fmt.Sprintf("shuffle-svc-%d", i), sEnv)
			if cfg.Backend == spark.BackendRDMA {
				// The service is a first-class UCR peer too: reducers on the
				// RDMA backend fetch merged runs over verbs, while pushes
				// ride the Netty control plane like RDMA-Spark's RPC does.
				ucrCfg := cfg.UCR
				if ucrCfg.ChunkSize == 0 {
					ucrCfg = ucr.DefaultConfig()
				}
				srv := ucr.NewServer(rdma.OpenDevice(node), svc.Resolve, ucrCfg)
				cl.ucr.add(svc.ID(), srv)
				cl.closers = append(cl.closers, srv.Close)
			}
		}
		addr := worker.Addr()
		seat := cl.NewSeat(i, node, svc, func(s *Seat, at vtime.Stamp) (*spark.Executor, vtime.Stamp, error) {
			data, vt, err := master.Ask(addr, WorkerEndpoint, []byte("launch-executor"), at)
			if err != nil {
				return nil, at, fmt.Errorf("deploy: launching executor on worker %d: %w", s.worker, err)
			}
			if reply := string(data); !strings.HasPrefix(reply, "launched:") {
				return nil, at, fmt.Errorf("deploy: worker %d launched no executor: %s", s.worker, reply)
			}
			cl.mu.Lock()
			defer cl.mu.Unlock()
			return s.last, vt, nil
		})
		seats[i] = seat
		if err := worker.RegisterEndpoint(WorkerEndpoint, func(c *rpc.Call) {
			if !strings.HasPrefix(string(c.Payload), "launch-executor") {
				c.Reply(nil, c.VT)
				return
			}
			forked := c.VT.Add(executorForkCost)
			e, err := seat.Fork(func(name, port string) (*rpc.Env, error) {
				return rpc.NewEnv(name, node, port, rpc.DefaultEnvConfig())
			}, forked)
			if err != nil {
				c.Reply([]byte("error:"+err.Error()), c.VT)
				return
			}
			c.Reply([]byte("launched:"+e.ID()), forked)
		}); err != nil {
			return fail(err)
		}
		payload := fmt.Sprintf("register-worker:%d:%s/%s", i, addr.Node, addr.Port)
		_, regVT, err := worker.Ask(master.Addr(), MasterEndpoint, []byte(payload), 0)
		if err != nil {
			return fail(fmt.Errorf("deploy: worker %d registration: %w", i, err))
		}
		launchVT = vtime.Max(launchVT, regVT)
	}

	// Driver: register the application, then launch each seat's executor
	// (the master relays the command; the flow is the same).
	driver, err := newEnv("driver", cfg.DriverNode, "driver-rpc")
	if err != nil {
		return fail(err)
	}
	if _, _, err := driver.Ask(master.Addr(), MasterEndpoint, []byte("register-app"), 0); err != nil {
		return fail(err)
	}
	execs := make([]*spark.Executor, len(seats))
	for i, s := range seats {
		var vt vtime.Stamp
		if execs[i], vt, err = s.launch(s, launchVT); err != nil {
			return fail(err)
		}
		launchVT = vtime.Max(launchVT, vt)
	}
	if err := cl.Start(driver, execs, launchVT); err != nil {
		return fail(err)
	}
	return cl, nil
}
