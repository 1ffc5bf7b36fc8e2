package spark

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// ExecutorEndpoint is the executor-side endpoint receiving LaunchTask
// messages.
const ExecutorEndpoint = "Executor"

// SchedulerEndpoint is the driver-side endpoint receiving StatusUpdate
// messages.
const SchedulerEndpoint = "TaskScheduler"

// RegistrationEndpoint is the driver-side endpoint receiving RegisterExecutor
// asks. The connection an executor registers over is the driver's route to
// it from then on: LaunchTask and every other driver-to-executor message go
// back over it, so the driver never dials an executor.
const RegistrationEndpoint = "RegisterExecutor"

// encodeRegistration is the RegisterExecutor payload: the address the
// executor listens on, node and port, one per line. The executor's id needs
// no field: it is the sender's name (rpc.Call.From).
func encodeRegistration(addr fabric.Addr) []byte {
	return []byte(addr.Node + "\n" + addr.Port)
}

// decodeRegistration returns the address a RegisterExecutor payload
// announces.
func decodeRegistration(payload []byte) (fabric.Addr, error) {
	node, port, ok := strings.Cut(string(payload), "\n")
	if !ok || node == "" || port == "" || strings.Contains(port, "\n") {
		return fabric.Addr{}, fmt.Errorf("spark: malformed executor registration %q", payload)
	}
	return fabric.Addr{Node: node, Port: port}, nil
}

// Backend selects the cluster's communication design.
type Backend int

const (
	// BackendVanilla is stock Spark: Netty NIO over TCP/IPoIB.
	BackendVanilla Backend = iota
	// BackendRDMA is RDMA-Spark: Netty RPC plus a UCR BlockTransferService.
	BackendRDMA
	// BackendMPIBasic is MPI4Spark-Basic: every Netty message over MPI with
	// an Iprobe-polling selector loop.
	BackendMPIBasic
	// BackendMPIOpt is MPI4Spark-Optimized: shuffle bodies over MPI,
	// headers and control over sockets.
	BackendMPIOpt
)

// String names the backend as the paper's figures do.
func (b Backend) String() string {
	switch b {
	case BackendVanilla:
		return "IPoIB"
	case BackendRDMA:
		return "RDMA"
	case BackendMPIBasic:
		return "MPI-Basic"
	case BackendMPIOpt:
		return "MPI"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend is String's inverse, ignoring case; it also accepts the
// names the four systems go by on a command line (vanilla, basic,
// mpi-opt, optimized).
func ParseBackend(name string) (Backend, error) {
	switch strings.ToLower(name) {
	case "ipoib", "vanilla":
		return BackendVanilla, nil
	case "rdma":
		return BackendRDMA, nil
	case "mpi-basic", "basic":
		return BackendMPIBasic, nil
	case "mpi", "mpi-opt", "optimized":
		return BackendMPIOpt, nil
	}
	return 0, fmt.Errorf("spark: unknown backend %q (ipoib|vanilla, rdma, mpi-basic|basic, mpi|mpi-opt|optimized)", name)
}

// slot is one executor core: its virtual clock, on which the tasks sharing
// the slot run back-to-back, and the index scratch the task holding it
// carves its per-record arrays from (TaskContext.indices).
type slot struct {
	clock   vtime.Clock
	scratch []int32
}

// Executor hosts task slots, a block manager, the shuffle machinery, and
// an RPC environment on one simulated node.
type Executor struct {
	id   string
	node *fabric.Node
	env  *rpc.Env
	bm   *storage.BlockManager
	sm   *shuffle.Manager
	bts  shuffle.BlockTransferService

	tracker *shuffle.TrackerClient
	loc     shuffle.Location
	svc     *shuffleservice.Service
	nSlots  int
	slots   vtime.Mailbox[*slot] // the free task slots
	tasks   vtime.Group          // one per launched task, joined by Wait
	cpu     CPUModel

	ucrServer *ucr.Server

	cacheMu sync.RWMutex
	cached  map[cacheKey]any

	// coll is the executor's collective-communication attachment point
	// (created at Attach).
	coll *collective.Station

	ctx *Context

	// dead marks the executor process as killed: nothing it computes
	// escapes (see Kill).
	dead atomic.Bool
	// activity is the executor's last stamped activity: its task launches
	// and ends. A killed executor is lost executorTimeout after it.
	activity vtime.Clock
}

// ExecutorConfig configures NewExecutor.
type ExecutorConfig struct {
	ID     string
	Node   *fabric.Node
	Env    *rpc.Env
	Slots  int
	CPU    CPUModel
	UseUCR bool
	// UCRRegistry resolves peer UCR servers (required when UseUCR).
	UCRRegistry shuffle.UCRServerRegistry
	// UCRConfig tunes the UCR runtime (zero value selects defaults).
	UCRConfig ucr.Config
	// StartVT is the virtual time the executor process came up (zero for
	// cluster-launch executors; replacements start at their respawn time
	// so their slots cannot run tasks before the process existed).
	StartVT vtime.Stamp
	// ShuffleService, when set, is the node-local external shuffle service
	// map tasks push committed blocks to; map statuses then point at the
	// service's location instead of the executor's.
	ShuffleService *shuffleservice.Service
}

// NewExecutor builds an executor around an existing RPC environment. Call
// Attach to wire it to a SparkContext before running jobs.
func NewExecutor(cfg ExecutorConfig) *Executor {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	e := &Executor{
		id:     cfg.ID,
		node:   cfg.Node,
		env:    cfg.Env,
		bm:     storage.NewBlockManager(cfg.ID),
		nSlots: cfg.Slots,
		cpu:    cfg.CPU,
		svc:    cfg.ShuffleService,
		cached: make(map[cacheKey]any),
	}
	e.sm = shuffle.NewManager(e.bm)
	e.loc = shuffle.Location{ExecID: cfg.ID, Addr: cfg.Env.Addr()}
	e.activity.Observe(cfg.StartVT)
	for i := 0; i < cfg.Slots; i++ {
		s := &slot{}
		s.clock.Observe(cfg.StartVT)
		e.slots.Push(s)
	}
	e.env.RegisterChunkResolver(func(id string) ([]byte, bool) {
		return e.bm.Get(storage.BlockID(id))
	})
	if cfg.UseUCR {
		ucrCfg := cfg.UCRConfig
		if ucrCfg.ChunkSize == 0 {
			ucrCfg = ucr.DefaultConfig()
		}
		e.ucrServer = ucr.NewServer(rdma.OpenDevice(cfg.Node), func(id string) ([]byte, bool) {
			return e.bm.Get(storage.BlockID(id))
		}, ucrCfg)
		e.bts = shuffle.NewUCRBTS(rdma.OpenDevice(cfg.Node), cfg.UCRRegistry)
	} else {
		e.bts = shuffle.NewNettyBTS(e.env)
	}
	return e
}

// ID returns the executor's id.
func (e *Executor) ID() string { return e.id }

// Node returns the executor's node.
func (e *Executor) Node() *fabric.Node { return e.node }

// Env returns the executor's RPC environment.
func (e *Executor) Env() *rpc.Env { return e.env }

// BlockManager returns the executor's block store.
func (e *Executor) BlockManager() *storage.BlockManager { return e.bm }

// Slots returns the executor's task slot count.
func (e *Executor) Slots() int { return e.nSlots }

// UCRServer returns the executor's UCR block server (RDMA backend), or nil.
func (e *Executor) UCRServer() *ucr.Server { return e.ucrServer }

// Attach wires the executor to a SparkContext: it learns the driver
// address, creates the tracker client, registers the Executor endpoint that
// launches tasks, and then registers with the driver at virtual time at,
// over the connection every later message between the two rides. It returns
// the time the registration reply arrived.
func (e *Executor) Attach(ctx *Context, at vtime.Stamp) (vtime.Stamp, error) {
	e.ctx = ctx
	e.tracker = shuffle.NewTrackerClient(e.env, ctx.driver.Addr())
	e.sm.ChunkBytes = ctx.cfg.ShuffleChunkBytes
	e.sm.Bus = ctx.bus
	e.coll = collective.NewStation(e.env)
	if e.svc != nil {
		e.svc.SetBus(ctx.bus)
	}
	if err := e.env.RegisterEndpoint(BroadcastEndpoint, func(c *rpc.Call) {
		// A destroyed broadcast's cached copy (and its accounted bytes)
		// leaves the block manager.
		e.bm.Remove(storage.BlockID(c.Payload))
		c.Reply([]byte{1}, c.VT.Add(broadcastDropCost))
	}); err != nil {
		return at, err
	}
	if err := e.env.RegisterEndpoint(ExecutorEndpoint, func(c *rpc.Call) {
		if len(c.Payload) < 8 {
			return
		}
		ctx.mu.Lock()
		a := ctx.attempts[int64(binary.BigEndian.Uint64(c.Payload[:8]))]
		ctx.mu.Unlock()
		if a == nil {
			return
		}
		// Run the task on a slot without blocking the dispatch loop. Shutdown
		// joins this loop before anyone waits for the tasks: no Go follows Wait.
		vt := c.VT
		e.tasks.Go(func() error {
			e.runTask(a, vt)
			return nil
		})
	}); err != nil {
		return at, err
	}
	_, vt, err := e.env.Ask(ctx.driver.Addr(), RegistrationEndpoint, encodeRegistration(e.env.Addr()), at)
	if err != nil {
		return at, fmt.Errorf("spark: registering executor %s: %w", e.id, err)
	}
	return vt, nil
}

// writeMapOutput commits one map task's partitioned output: blocks land in
// the executor's own block manager, and — when a node-local external
// shuffle service is attached — every non-empty block is pushed to the
// service synchronously before the task reports success. The returned
// MapStatus then points at the service's location, so the output survives
// this executor's death. A failed push fails the task (the scheduler's
// ordinary task retry covers it); the local write is kept either way.
func (e *Executor) writeMapOutput(tc *TaskContext, shuffleID, mapID int, parts [][]byte) (*shuffle.MapStatus, error) {
	st := e.sm.WriteMapOutput(shuffleID, mapID, parts, e.loc)
	if e.svc == nil {
		return st, nil
	}
	addr := e.svc.Addr()
	for r, p := range parts {
		if len(p) == 0 {
			continue
		}
		_, vt, err := e.env.PushBlock(addr, shuffleID, mapID, r, p, st.Sums[r], tc.vt)
		if err != nil {
			return nil, fmt.Errorf("push shuffle block %d/%d/%d to %s: %w", shuffleID, mapID, r, e.svc.ID(), err)
		}
		tc.vt = vtime.Max(tc.vt, vt)
	}
	return &shuffle.MapStatus{Loc: e.svc.Location(), Sizes: st.Sizes, Sums: st.Sums}, nil
}

// runTask executes one attempt of a task on a free slot and reports the
// status update back to the driver.
func (e *Executor) runTask(a *attempt, launchVT vtime.Stamp) {
	s, _ := e.slots.Recv()
	if e.dead.Load() {
		// The process died before the task started; the driver learns of
		// the loss from Kill's report (or the failed launch send).
		e.slots.Push(s)
		return
	}
	e.activity.Observe(launchVT)
	start := vtime.Max(s.clock.Now(), launchVT)
	desc := a.task
	e.ctx.bus.Emit(obs.Event{
		Type: obs.EvTaskStart, VT: start, Job: desc.stage.jobID,
		Stage: desc.stage.id, Partition: desc.part, Attempt: a.number,
		Executor: e.id,
		MapLo:    desc.share.mapLo, MapHi: desc.share.mapHi, Coalesced: desc.share.coalesced(),
	})
	task := &struct {
		tc   TaskContext
		comp completion
	}{tc: TaskContext{
		StageID:     desc.stage.id,
		Partition:   desc.part,
		exec:        e,
		vt:          start,
		cpu:         e.cpu,
		share:       desc.share,
		slot:        s,
		issueVT:     start,
		prevShuffle: -1,
	}}
	tc := &task.tc
	result, mapStatus, err := desc.run(tc)
	s.clock.Observe(tc.vt)
	e.slots.Push(s)
	e.activity.Observe(tc.vt)
	if e.dead.Load() {
		// The process died mid-task: nothing it computed escapes — no
		// completion, no TaskEnd. The driver's loss funnel fails the task
		// and emits the synthetic TaskEnd.
		return
	}

	end := obs.Event{
		Type: obs.EvTaskEnd, VT: tc.vt, Job: desc.stage.jobID,
		Stage: desc.stage.id, Partition: desc.part, Attempt: a.number,
		Executor: e.id, Start: start,
		Records: tc.recordsRead, BytesLocal: tc.bytesLocal,
		BytesRemote: tc.bytesRemote, FetchWait: tc.shuffleWaitDur,
		MapLo: desc.share.mapLo, MapHi: desc.share.mapHi, Coalesced: desc.share.coalesced(),
	}
	if err != nil {
		end.Err = err.Error()
	}
	e.ctx.bus.Emit(end)

	comp := &task.comp
	*comp = completion{
		attempt:   a,
		part:      desc.part,
		execID:    e.id,
		result:    result,
		mapStatus: mapStatus,
		cached:    tc.newlyCached,
		err:       err,
		metrics: taskMetrics{
			Records:       tc.recordsRead,
			ShuffleBytes:  tc.bytesLocal + tc.bytesRemote,
			ShuffleWaitVT: tc.shuffleWaitDur,
		},
	}
	e.ctx.mu.Lock()
	a.comp = comp
	e.ctx.mu.Unlock()

	// StatusUpdate control message: attempt id plus the (modeled)
	// serialized result.
	size := 16 + desc.resultSize(result)
	payload := make([]byte, 8, size)
	binary.BigEndian.PutUint64(payload[:8], uint64(a.id))
	payload = payload[:size]
	if _, err := e.env.Send(e.ctx.driver.Addr(), SchedulerEndpoint, payload, tc.vt); err != nil {
		if e.dead.Load() {
			return
		}
		// Driver unreachable: this executor's node was failed mid-task.
		// Funnel into handleExecutorLost rather than surfacing the task's
		// own error — which could be a FetchFailedError whose real cause
		// is this executor's death severing its connections — so the
		// scheduler retries the task elsewhere instead of unregistering
		// healthy map outputs. The real driver learns of such a loss from
		// its side of the dead connection; the in-process funnel is our
		// stand-in and keeps the scheduler free of timeouts.
		e.ctx.handleExecutorLost(e.id, tc.vt, fmt.Sprintf("status update failed: %v", err))
	}
}

// Kill models the executor process dying (a JVM crash or OOM-kill): its
// in-flight tasks die with it and never report, and its RPC environment —
// including the shuffle blocks it was serving — goes away. The node and its
// worker stay up, so the deployment can fork a replacement there. This is
// the process-death counterpart to fabric.FailNode, which takes the whole
// node down. The driver declares the executor lost executorTimeout after
// its last stamped activity (spark.network.timeout), unless a failed send
// or fetch has reported it first.
func (e *Executor) Kill() {
	if !e.dead.CompareAndSwap(false, true) {
		return
	}
	e.env.Shutdown()
	if e.ucrServer != nil {
		e.ucrServer.Close()
	}
	if e.ctx != nil {
		e.ctx.reportSilent(e.id, e.activity.Now().Add(executorTimeout))
	}
}

func (e *Executor) getCached(rddID, part int) (any, bool) {
	e.cacheMu.RLock()
	defer e.cacheMu.RUnlock()
	v, ok := e.cached[cacheKey{rddID: rddID, part: part}]
	return v, ok
}

func (e *Executor) putCached(rddID, part int, v any) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	e.cached[cacheKey{rddID: rddID, part: part}] = v
}

// Wait returns once every task the executor launched has. It follows the
// env's Shutdown, which stops launches and fails what a running task sends.
func (e *Executor) Wait() {
	e.tasks.Wait()
}

// Close releases the executor's resources (the env is owned by the deploy
// layer and closed there).
func (e *Executor) Close() {
	if e.bts != nil {
		e.bts.Close()
	}
	if e.ucrServer != nil {
		e.ucrServer.Close()
	}
}
