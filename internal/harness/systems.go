// Package harness builds clusters from the paper's system profiles
// (Table III) and regenerates every figure and table of the evaluation
// (Figures 8-12) as deterministic virtual-time experiments.
//
// Scaling: the paper's runs use up to 448 GB and 1792 cores. The harness
// preserves worker counts and data-per-worker ratios while shrinking both
// by constant factors (Scale), so shapes — who wins, by what factor, where
// crossovers fall — are preserved on a laptop.
package harness

import (
	"fmt"
	"strings"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/faults"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
	"mpi4spark/internal/ucr"
)

// System is one Table III hardware profile.
type System struct {
	Name string
	// PaperCoresPerNode is the paper's per-node core count: the cores of
	// every worker node, which its slots split between them and which the
	// Basic design's spinning selectors take from its tasks.
	PaperCoresPerNode int
	// SlotsPerWorker is the scaled simulated executor slot count.
	SlotsPerWorker int
	// NewModel builds the interconnect cost model.
	NewModel func() *fabric.Model
	// SupportsRDMA reports whether the RDMA-Spark baseline runs here
	// (Stampede2's Omni-Path does not support RDMA-Spark, per the paper).
	SupportsRDMA bool
}

// The paper's three systems (Table III).
var (
	// Frontera is TACC Frontera: 2x28-core Xeon Platinum, IB-HDR 100 Gbps.
	Frontera = System{
		Name:              "Frontera",
		PaperCoresPerNode: 56,
		SlotsPerWorker:    4,
		NewModel:          fabric.NewIBHDRModel,
		SupportsRDMA:      true,
	}
	// Stampede2 is TACC Stampede2: Xeon with 2-way SMT (96 threads),
	// Omni-Path 100 Gbps.
	Stampede2 = System{
		Name:              "Stampede2",
		PaperCoresPerNode: 96,
		SlotsPerWorker:    4,
		NewModel:          fabric.NewOPAModel,
		SupportsRDMA:      false,
	}
	// InternalCluster is the paper's 2-node Xeon Broadwell IB-EDR system
	// used for the Netty-level evaluation.
	InternalCluster = System{
		Name:              "InternalCluster",
		PaperCoresPerNode: 28,
		SlotsPerWorker:    4,
		NewModel:          fabric.NewIBEDRModel,
		SupportsRDMA:      true,
	}
)

// Systems lists the profiles for discovery commands.
func Systems() []System { return []System{Frontera, Stampede2, InternalCluster} }

// SystemByName returns the profile with the given name.
func SystemByName(name string) (System, error) {
	var names []string
	for _, s := range Systems() {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return System{}, fmt.Errorf("harness: unknown system %q (%s)", name, strings.Join(names, "|"))
}

// Cluster is a unified handle over standalone and MPI-launched clusters.
type Cluster struct {
	Ctx     *spark.Context
	Fabric  *fabric.Fabric
	closeFn func()
}

// Close releases the cluster.
func (c *Cluster) Close() {
	if c.closeFn != nil {
		c.closeFn()
	}
}

// ClusterSpec describes a cluster to build.
type ClusterSpec struct {
	System  System
	Workers int
	Backend spark.Backend
	// SlotsPerWorker overrides the system default when > 0.
	SlotsPerWorker int
	// CPU overrides the default compute model when non-zero.
	CPU spark.CPUModel
	// UCR overrides the RDMA runtime config (zero selects defaults).
	UCR ucr.Config
	// Supervise enables executor liveness supervision (heartbeats,
	// ExecutorLost recovery, replacement; spark.Config.Supervise).
	// Benchmarks leave it off: heartbeat volume depends on wall-clock
	// progress, which would perturb the deterministic timings.
	Supervise bool
	// EventLogPath records the run's lifecycle events as JSONL
	// (spark.Config.EventLogPath), replayable with cmd/eventlog.
	EventLogPath string
	// ShuffleService enables the per-worker external shuffle service
	// (spark.Config.ExternalShuffleService): map outputs are pushed to and
	// served from a node-local service endpoint that survives executor loss.
	ShuffleService bool
	// Adaptive enables skew-aware reduce planning
	// (spark.Config.AdaptiveExecution) at the spark default byte target.
	Adaptive bool
	// Faults installs a deterministic network fault plan on the cluster's
	// fabric (internal/faults): per-link drop/dup/corrupt/jitter rules,
	// link flaps, and node-set partitions in virtual time. Nil runs clean.
	Faults *faults.Plan
}

// BuildCluster constructs the cluster: standalone deploy for Vanilla and
// RDMA, the Fig. 3 MPI launcher for the MPI4Spark designs.
func BuildCluster(spec ClusterSpec) (*Cluster, error) {
	if spec.Workers < 1 {
		return nil, fmt.Errorf("harness: need at least one worker")
	}
	if spec.Backend == spark.BackendRDMA && !spec.System.SupportsRDMA {
		return nil, fmt.Errorf("harness: %s does not support RDMA-Spark", spec.System.Name)
	}
	slots := spec.SlotsPerWorker
	if slots < 1 {
		slots = spec.System.SlotsPerWorker
	}
	cpu := spec.CPU
	if cpu == (spark.CPUModel{}) {
		// Core consolidation: one simulated slot stands in for
		// PaperCoresPerNode/slots physical cores, so per-record compute
		// shrinks by the same factor. This keeps the compute:communication
		// balance of the paper's full-subscription runs (e.g. 56 cores per
		// Frontera node) at laptop scale.
		cpu = spark.DefaultCPUModel()
		f := float64(slots) / float64(spec.System.PaperCoresPerNode)
		cpu.NsPerRecord *= f
		cpu.NsPerByte *= f
		cpu.SortNsPerCmp *= f
	}
	f := fabric.New(spec.System.NewModel())
	if spec.Faults != nil {
		f.SetFaultPlane(faults.NewPlane(*spec.Faults))
	}
	wn := make([]*fabric.Node, spec.Workers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("w%d", i))
		wn[i].SetCores(spec.System.PaperCoresPerNode)
	}
	master := f.AddNode("master")
	driver := f.AddNode("driver")

	sparkCfg := spark.DefaultConfig()
	sparkCfg.Name = fmt.Sprintf("%s-%s", spec.System.Name, spec.Backend)
	sparkCfg.CPU = cpu
	sparkCfg.DefaultParallelism = spec.Workers * slots
	sparkCfg.EventLogPath = spec.EventLogPath
	sparkCfg.ExternalShuffleService = spec.ShuffleService
	sparkCfg.AdaptiveExecution = spec.Adaptive
	sparkCfg.Supervise = spec.Supervise
	launch := deploy.StartCluster
	if spec.Backend == spark.BackendMPIBasic || spec.Backend == spark.BackendMPIOpt {
		launch = core.LaunchMPICluster
	}
	cl, err := launch(deploy.Config{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     master,
		DriverNode:     driver,
		SlotsPerWorker: slots,
		Backend:        spec.Backend,
		Spark:          sparkCfg,
		UCR:            spec.UCR,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{Ctx: cl.Ctx, Fabric: f, closeFn: cl.Close}, nil
}
