package ohb

import (
	"fmt"
	"sync"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

// OSUPoint is one message-size row of an OSU-style collective latency
// sweep: the virtual time from every rank entering the operation to the
// last rank leaving it, averaged over the iterations.
type OSUPoint struct {
	Bytes   int
	Latency vtime.Stamp
}

// OSUResult is an osu_bcast / osu_allreduce style latency table.
type OSUResult struct {
	Name   string
	Points []OSUPoint
}

// DefaultOSUSizes is the message-size sweep of the OSU collective latency
// benchmarks, 4 B to 4 MiB in powers of four.
func DefaultOSUSizes() []int {
	var sizes []int
	for b := 4; b <= 4<<20; b *= 4 {
		sizes = append(sizes, b)
	}
	return sizes
}

// AllreduceOSUSizes is DefaultOSUSizes for osu_allreduce: it starts at one
// float64 (8 B), as osu_allreduce starts at its datatype's size.
func AllreduceOSUSizes() []int {
	sizes := DefaultOSUSizes()
	sizes[0] = 8
	return sizes
}

// osuSweep times one collective op per size for iters iterations. runOp
// executes the operation across the whole group starting at `at` and
// returns the completion time of its slowest rank.
func osuSweep(ctx *spark.Context, name string, sizes []int, iters int,
	runOp func(g *collective.Group, size int, at vtime.Stamp) (vtime.Stamp, error)) (*OSUResult, error) {
	if iters < 1 {
		return nil, fmt.Errorf("ohb: %s needs at least one timed iteration, got %d", name, iters)
	}
	g, _ := ctx.CollectiveGroup()
	if g.Size() < 2 {
		return nil, fmt.Errorf("ohb: %s needs at least one live executor", name)
	}
	res := &OSUResult{Name: name}
	for _, size := range sizes {
		var total vtime.Stamp
		at := ctx.Clock()
		// One untimed warmup iteration per size, as in the real OSU
		// benchmarks: it keeps one-time costs (connection establishment
		// on edges the timed algorithm is about to use) out of the
		// steady-state numbers.
		done, err := runOp(g, size, at)
		if err != nil {
			return nil, err
		}
		at = done
		for i := 0; i < iters; i++ {
			done, err := runOp(g, size, at)
			if err != nil {
				return nil, err
			}
			total += done - at
			at = done
		}
		ctx.AdvanceClock(at)
		res.Points = append(res.Points, OSUPoint{Bytes: size, Latency: total / vtime.Stamp(iters)})
	}
	return res, nil
}

// RunOSUBcast measures broadcast latency per message size across the
// cluster's collective group (driver root, every executor a rank) — the
// osu_bcast benchmark of the OSU suite, run over whichever transport the
// cluster was built on.
func RunOSUBcast(ctx *spark.Context, sizes []int, iters int) (*OSUResult, error) {
	return osuSweep(ctx, "osu_bcast", sizes, iters,
		func(g *collective.Group, size int, at vtime.Stamp) (vtime.Stamp, error) {
			data := make([]byte, size)
			op := collective.NextOpID()
			var mu sync.Mutex
			var done vtime.Stamp
			err := g.Run(op, "bcast", size, func(rank int) error {
				var in []byte
				if rank == 0 {
					in = data
				}
				_, vt, err := g.Bcast(op, rank, 0, in, at)
				if err != nil {
					return err
				}
				mu.Lock()
				done = vtime.Max(done, vt)
				mu.Unlock()
				return nil
			})
			return done, err
		})
}

// RunOSUAllreduce measures allreduce (float64 sum) latency per message
// size — the osu_allreduce benchmark. Every size must be a positive
// multiple of 8 B, whole float64s.
func RunOSUAllreduce(ctx *spark.Context, sizes []int, iters int) (*OSUResult, error) {
	for _, size := range sizes {
		if size < 8 || size%8 != 0 {
			return nil, fmt.Errorf("ohb: osu_allreduce sums float64s: size %d B is not a positive multiple of 8", size)
		}
	}
	return osuSweep(ctx, "osu_allreduce", sizes, iters,
		func(g *collective.Group, size int, at vtime.Stamp) (vtime.Stamp, error) {
			data := make([]byte, size)
			op := collective.NextOpID()
			var mu sync.Mutex
			var done vtime.Stamp
			err := g.Run(op, "allreduce", size, func(rank int) error {
				// Synthetic payload: only the timing matters.
				_, vt, err := g.Allreduce(op, rank, data, collective.Float64Sum, at)
				if err != nil {
					return err
				}
				mu.Lock()
				done = vtime.Max(done, vt)
				mu.Unlock()
				return nil
			})
			return done, err
		})
}
