// Package deploy implements Spark standalone cluster deployment for the
// simulated fabric: a master process, per-node worker processes that fork
// executors, and a driver that registers its application with the master —
// the launch path Vanilla Spark and RDMA-Spark use (MPI4Spark replaces it
// with the mpiexec wrapper flow in internal/core).
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

// Config describes a standalone cluster.
type Config struct {
	// Fabric is the simulated interconnect (nodes already added).
	Fabric *fabric.Fabric
	// WorkerNodes hosts one worker (and its executors) each.
	WorkerNodes []*fabric.Node
	// MasterNode and DriverNode host the master and driver.
	MasterNode, DriverNode *fabric.Node
	// SlotsPerWorker is spark_executor_cores.
	SlotsPerWorker int
	// Backend selects Vanilla (Netty NIO) or RDMA (UCR shuffle).
	Backend spark.Backend
	// Spark configures the SparkContext; its CPU is the executors' compute
	// model.
	Spark spark.Config
	// UCR tunes the RDMA backend's runtime (zero value selects defaults).
	UCR ucr.Config
}

// Cluster is a running standalone deployment.
type Cluster struct {
	Ctx       *spark.Context
	Executors []*spark.Executor
	DriverEnv *rpc.Env
	MasterEnv *rpc.Env
	Workers   []*rpc.Env
	// Services holds the per-worker external shuffle services (nil entries
	// when cfg.Spark.ExternalShuffleService is off).
	Services []*shuffleservice.Service

	envs []*rpc.Env
	// spawned holds every executor the workers ever forked, including
	// replacements launched after a loss (Executors keeps the initial set).
	spawned []*spark.Executor
	// closers releases non-env resources (service UCR servers).
	closers []func()
}

// Close shuts everything down.
func (c *Cluster) Close() {
	if c.Ctx != nil {
		c.Ctx.Close()
	}
	for _, e := range c.spawned {
		e.Close()
	}
	for _, fn := range c.closers {
		fn()
	}
	for _, env := range c.envs {
		env.Shutdown()
	}
}

// executorID qualifies the executor id with the worker's launch attempt:
// the first fork keeps the classic exec-N name, while relaunches append
// the attempt so a replacement never collides with its predecessor's id
// or RPC port.
func executorID(worker, attempt int) string {
	if attempt == 0 {
		return fmt.Sprintf("exec-%d", worker)
	}
	return fmt.Sprintf("exec-%d.%d", worker, attempt)
}

func executorPort(worker, attempt int) string {
	if attempt == 0 {
		return fmt.Sprintf("exec-rpc-%d", worker)
	}
	return fmt.Sprintf("exec-rpc-%d.%d", worker, attempt)
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

// StartCluster brings up the standalone cluster: the master starts, every
// worker registers with it over RPC, the driver submits its application,
// the master commands each worker to launch an executor, and the driver
// builds the SparkContext over the registered executors.
func StartCluster(cfg Config) (*Cluster, error) {
	if cfg.Backend != spark.BackendVanilla && cfg.Backend != spark.BackendRDMA {
		return nil, fmt.Errorf("deploy: standalone mode supports Vanilla and RDMA backends; %v requires the MPI launcher in internal/core", cfg.Backend)
	}
	if len(cfg.WorkerNodes) == 0 {
		return nil, fmt.Errorf("deploy: no worker nodes")
	}
	if cfg.SlotsPerWorker < 1 {
		cfg.SlotsPerWorker = 1
	}
	envCfg := rpc.DefaultEnvConfig()

	cl := &Cluster{}
	fail := func(err error) (*Cluster, error) {
		cl.Close()
		return nil, err
	}

	// Master.
	masterEnv, err := rpc.NewEnv("master", cfg.MasterNode, "master-rpc", envCfg)
	if err != nil {
		return fail(err)
	}
	cl.envs = append(cl.envs, masterEnv)
	cl.MasterEnv = masterEnv

	type workerInfo struct {
		id   int
		addr fabric.Addr
	}
	var mu sync.Mutex
	var workers []workerInfo
	if err := masterEnv.RegisterEndpoint(MasterEndpoint, func(c *rpc.Call) {
		switch {
		case strings.HasPrefix(string(c.Payload), "register-worker:"):
			var id int
			var node, port string
			fmt.Sscanf(string(c.Payload), "register-worker:%d:%s", &id, &node)
			parts := strings.SplitN(node, "/", 2)
			if len(parts) == 2 {
				node, port = parts[0], parts[1]
			}
			mu.Lock()
			workers = append(workers, workerInfo{id: id, addr: fabric.Addr{Node: node, Port: port}})
			n := len(workers)
			mu.Unlock()
			c.Reply([]byte(fmt.Sprintf("registered:%d", n)), c.VT.Add(2*time.Microsecond))
		case string(c.Payload) == "register-app":
			mu.Lock()
			n := len(workers)
			mu.Unlock()
			c.Reply([]byte(fmt.Sprintf("app-accepted:%d", n)), c.VT.Add(2*time.Microsecond))
		default:
			c.Reply(nil, c.VT)
		}
	}); err != nil {
		return fail(err)
	}

	// Workers: each registers with the master and exposes a launch
	// endpoint that forks an executor when commanded.
	reg := &ucrRegistry{servers: make(map[string]*ucr.Server)}
	var execMu sync.Mutex
	var executors []*spark.Executor
	var launchVT vtime.Stamp
	// Replacement bookkeeping: per-worker fork attempt counters, the
	// worker each executor belongs to, and every forked executor by id.
	attempts := make(map[int]int)
	execWorker := make(map[string]fabric.Addr)
	launched := make(map[string]*spark.Executor)
	for i, node := range cfg.WorkerNodes {
		wEnv, err := rpc.NewEnv(fmt.Sprintf("worker-%d", i), node, "worker-rpc", envCfg)
		if err != nil {
			return fail(err)
		}
		cl.envs = append(cl.envs, wEnv)
		cl.Workers = append(cl.Workers, wEnv)
		widx := i
		wNode := node
		// External shuffle service: one per worker node, outside any
		// executor process, so a forked replacement inherits it and an
		// executor death never takes pushed map outputs with it.
		var svc *shuffleservice.Service
		if cfg.Spark.ExternalShuffleService {
			sEnv, err := rpc.NewEnv(fmt.Sprintf("shuffle-svc-%d", i), node, fmt.Sprintf("shuffle-svc-rpc-%d", i), envCfg)
			if err != nil {
				return fail(err)
			}
			cl.envs = append(cl.envs, sEnv)
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
				reg.mu.Lock()
				reg.servers[svc.ID()] = srv
				reg.mu.Unlock()
				cl.closers = append(cl.closers, srv.Close)
			}
		}
		cl.Services = append(cl.Services, svc)
		if err := wEnv.RegisterEndpoint(WorkerEndpoint, func(c *rpc.Call) {
			if !strings.HasPrefix(string(c.Payload), "launch-executor") {
				c.Reply(nil, c.VT)
				return
			}
			// Fork the executor process: new env on the same node, with
			// the id and port qualified by this worker's fork attempt so
			// a relaunch never collides with a previous executor.
			execMu.Lock()
			attempt := attempts[widx]
			attempts[widx]++
			execMu.Unlock()
			execID := executorID(widx, attempt)
			eEnv, err := rpc.NewEnv(execID, wNode, executorPort(widx, attempt), envCfg)
			if err != nil {
				c.Reply([]byte("error:"+err.Error()), c.VT)
				return
			}
			// Executor fork cost (JVM spin-up is far larger; this covers
			// the process-management path).
			forkedVT := c.VT.Add(2 * time.Millisecond)
			e := spark.NewExecutor(spark.ExecutorConfig{
				ID:             execID,
				Node:           wNode,
				Env:            eEnv,
				Slots:          cfg.SlotsPerWorker,
				CPU:            cfg.Spark.CPU,
				UseUCR:         cfg.Backend == spark.BackendRDMA,
				UCRRegistry:    reg,
				UCRConfig:      cfg.UCR,
				StartVT:        forkedVT,
				ShuffleService: svc,
			})
			if cfg.Backend == spark.BackendRDMA {
				reg.mu.Lock()
				reg.servers[execID] = e.UCRServer()
				reg.mu.Unlock()
			}
			execMu.Lock()
			executors = append(executors, e)
			cl.spawned = append(cl.spawned, e)
			cl.envs = append(cl.envs, eEnv)
			execWorker[execID] = wEnv.Addr()
			launched[execID] = e
			if c.VT > launchVT {
				launchVT = c.VT
			}
			execMu.Unlock()
			c.Reply([]byte("launched:"+execID), forkedVT)
		}); err != nil {
			return fail(err)
		}
		// Worker registers with the master.
		payload := fmt.Sprintf("register-worker:%d:%s/%s", i, wEnv.Addr().Node, wEnv.Addr().Port)
		_, regVT, err := wEnv.Ask(masterEnv.Addr(), MasterEndpoint, []byte(payload), 0)
		if err != nil {
			return fail(fmt.Errorf("deploy: worker %d registration: %w", i, err))
		}
		execMu.Lock()
		if regVT > launchVT {
			launchVT = regVT
		}
		execMu.Unlock()
	}

	// Driver: register the application, then ask each worker to launch an
	// executor (the master would relay this; the command flow is the same).
	driverEnv, err := rpc.NewEnv("driver", cfg.DriverNode, "driver-rpc", envCfg)
	if err != nil {
		return fail(err)
	}
	cl.envs = append(cl.envs, driverEnv)
	cl.DriverEnv = driverEnv
	if _, _, err := driverEnv.Ask(masterEnv.Addr(), MasterEndpoint, []byte("register-app"), 0); err != nil {
		return fail(err)
	}
	mu.Lock()
	ws := append([]workerInfo(nil), workers...)
	mu.Unlock()
	for _, w := range ws {
		_, lvt, err := masterEnv.Ask(w.addr, WorkerEndpoint, []byte("launch-executor"), launchVT)
		if err != nil {
			return fail(fmt.Errorf("deploy: launching executor on worker %d: %w", w.id, err))
		}
		if lvt > launchVT {
			launchVT = lvt
		}
	}

	execMu.Lock()
	execs := append([]*spark.Executor(nil), executors...)
	execMu.Unlock()
	ctx, err := spark.NewContext(cfg.Spark, driverEnv, execs)
	if err != nil {
		return fail(err)
	}
	// Replacement path: when the driver declares an executor lost, the
	// master asks the worker that owned it to fork a fresh one — the same
	// launch-executor command flow as the initial deployment. A worker
	// whose node died refuses the dial, so the cluster simply stays at
	// reduced width.
	ctx.SetExecutorReplacer(func(lost *spark.Executor, at vtime.Stamp) (*spark.Executor, vtime.Stamp, error) {
		execMu.Lock()
		wAddr, ok := execWorker[lost.ID()]
		execMu.Unlock()
		if !ok {
			return nil, at, fmt.Errorf("deploy: no worker owns executor %s", lost.ID())
		}
		data, lvt, err := masterEnv.Ask(wAddr, WorkerEndpoint, []byte("launch-executor"), at)
		if err != nil {
			return nil, at, fmt.Errorf("deploy: relaunching executor for %s: %w", lost.ID(), err)
		}
		reply := string(data)
		if !strings.HasPrefix(reply, "launched:") {
			return nil, at, fmt.Errorf("deploy: relaunch for %s failed: %s", lost.ID(), reply)
		}
		execMu.Lock()
		repl := launched[strings.TrimPrefix(reply, "launched:")]
		execMu.Unlock()
		if repl == nil {
			return nil, at, fmt.Errorf("deploy: relaunch for %s produced no executor", lost.ID())
		}
		return repl, lvt, nil
	})
	cl.Ctx = ctx
	cl.Executors = execs
	// Virtual time is global: jobs begin after deployment completed.
	ctx.AdvanceClock(launchVT)
	return cl, nil
}
