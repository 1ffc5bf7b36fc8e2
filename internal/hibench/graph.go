package hibench

import (
	"math/rand"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/spark"
)

// Edge is a weighted directed edge.
type Edge struct {
	Dst    int64
	Weight float64
}

// edgeCodec serializes Edge values for the shuffle.
type edgeCodec struct{}

func (edgeCodec) Encode(buf *bytebuf.Buf, e Edge) {
	buf.WriteInt64(e.Dst)
	var f spark.Float64Codec
	f.Encode(buf, e.Weight)
}

func (edgeCodec) Decode(buf *bytebuf.Buf) (Edge, error) {
	d, err := buf.ReadInt64()
	if err != nil {
		return Edge{}, err
	}
	var f spark.Float64Codec
	w, err := f.Decode(buf)
	return Edge{Dst: d, Weight: w}, err
}

// NWeightConfig parameterizes the NWeight graph workload: associations
// between vertices n hops apart.
type NWeightConfig struct {
	Parts    int
	Vertices int64
	// Degree is the out-degree per vertex.
	Degree int
	// Hops is n, the association distance.
	Hops int
	Seed int64
}

// valid also asks for a vertex in every partition: Vertices / Parts must
// not round to none.
func (c NWeightConfig) valid() bool {
	return c.Parts >= 1 && c.Vertices >= int64(c.Parts) && c.Degree >= 1 && c.Hops >= 1
}

// RunNWeight computes n-hop association weights: starting from unit
// self-weights, it propagates weights along edges for Hops iterations,
// each iteration joining the frontier with the edge list and combining
// per destination — two shuffles per hop, HiBench's graph-processing
// pattern. The metric is the total association mass after n hops.
func RunNWeight(ctx *spark.Context, cfg NWeightConfig) (*Result, error) {
	return run(ctx, "NWeight", cfg, func() (float64, error) {
		edges := spark.Generate(ctx, cfg.Parts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, Edge] {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(part)))
			perPart := int(cfg.Vertices) / cfg.Parts
			out := make([]spark.Pair[int64, Edge], 0, perPart*cfg.Degree)
			for i := 0; i < perPart; i++ {
				src := int64(part*perPart + i)
				for d := 0; d < cfg.Degree; d++ {
					out = append(out, spark.Pair[int64, Edge]{
						K: src,
						V: Edge{Dst: rng.Int63n(cfg.Vertices), Weight: rng.Float64()},
					})
				}
			}
			tc.ChargeRecords(len(out), len(out)*16)
			return out
		}).Cache()
		if _, err := spark.Count(edges); err != nil {
			return 0, err
		}

		edgeConf := spark.ShuffleConf[int64, Edge]{
			Codec: spark.PairCodec[int64, Edge]{Key: spark.Int64Codec{}, Val: edgeCodec{}},
			Ops:   spark.Int64Key{},
			Parts: cfg.Parts,
		}
		wConf := spark.ShuffleConf[int64, float64]{
			Codec: spark.PairCodec[int64, float64]{Key: spark.Int64Codec{}, Val: spark.Float64Codec{}},
			Ops:   spark.Int64Key{},
			Parts: cfg.Parts,
		}

		// frontier: vertex -> accumulated weight (unit mass at hop 0).
		frontier := spark.Generate(ctx, cfg.Parts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, float64] {
			perPart := int(cfg.Vertices) / cfg.Parts
			out := make([]spark.Pair[int64, float64], perPart)
			for i := range out {
				out[i] = spark.Pair[int64, float64]{K: int64(part*perPart + i), V: 1}
			}
			tc.ChargeRecords(perPart, perPart*16)
			return out
		})

		for hop := 0; hop < cfg.Hops; hop++ {
			joined := spark.Join(edges, edgeConf, frontier, wConf)
			propagated := spark.Map(joined, func(p spark.Pair[int64, spark.Pair[Edge, float64]]) spark.Pair[int64, float64] {
				return spark.Pair[int64, float64]{K: p.V.K.Dst, V: p.V.K.Weight * p.V.V}
			})
			frontier = spark.ReduceByKey(propagated, wConf, func(a, b float64) float64 { return a + b })
		}
		total, err := spark.Aggregate(frontier,
			func() float64 { return 0 },
			func(acc float64, p spark.Pair[int64, float64]) float64 { return acc + p.V },
			func(a, b float64) float64 { return a + b },
			8)
		if err != nil {
			return 0, err
		}
		return total, nil
	})
}
