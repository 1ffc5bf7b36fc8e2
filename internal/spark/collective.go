package spark

import (
	"mpi4spark/internal/collective"
	"mpi4spark/internal/obs"
)

// collectiveGroup assembles a fresh collective group over the driver
// (rank 0) and the currently-live executors (rank i+1 is execs[i]). Dead
// executors are skipped, so collectives keep working after an
// ExecutorLost; a group is cheap to build and is assembled per operation
// against the current cluster membership.
func (c *Context) collectiveGroup() (*collective.Group, []*Executor) {
	c.mu.Lock()
	snapshot := append([]*Executor(nil), c.executors...)
	c.mu.Unlock()
	members := []*collective.Station{c.collDriver}
	var execs []*Executor
	for _, e := range snapshot {
		if e.dead.Load() || e.coll == nil {
			continue
		}
		members = append(members, e.coll)
		execs = append(execs, e)
	}
	g := collective.NewGroup(members)
	g.SetObserver(func(info collective.OpInfo) {
		// The driver clock advances only when the caller observes the
		// op's completion VT (AdvanceClock), after this hook runs — the
		// stamp is the clock at op completion, a documented approximation.
		e := obs.Event{
			Type: obs.EvCollectiveOp, VT: c.Clock(),
			Op: info.Op, Kind: info.Kind, Bytes: info.Bytes, Ranks: info.Ranks,
		}
		if info.Err != nil {
			e.Err = info.Err.Error()
		}
		c.bus.Emit(e)
	})
	return g, execs
}

// CollectiveGroup exposes the driver+executors collective group (driver is
// rank 0; Executors()[i] maps to rank i+1) for benchmark harnesses such as
// the OSU-style OHB collective latency suites.
func (c *Context) CollectiveGroup() (*collective.Group, []*Executor) {
	return c.collectiveGroup()
}
