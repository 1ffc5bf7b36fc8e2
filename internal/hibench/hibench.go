// Package hibench reimplements the Intel HiBench workloads evaluated in
// the paper's Figure 12 against the mini-Spark RDD API: the machine
// learning suite (SVM, Logistic Regression, Gaussian Mixture Model, Latent
// Dirichlet Allocation), the micro benchmarks (TeraSort, Repartition), and
// the graph workload (NWeight).
package hibench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

// Result captures one workload run.
type Result struct {
	Name   string
	Stages []spark.StageTiming
	// Total is the virtual execution time of the workload.
	Total vtime.Stamp
	// Metric is a workload-defined scalar (loss, record count, ...) used
	// by tests to check functional correctness.
	Metric float64
}

// config is a workload's configuration. It is a complete description of
// the job: no field is filled in, so valid reports whether every one is set
// and in range.
type config interface{ valid() bool }

// run rejects an invalid cfg, then runs a workload body with stage capture
// and timing.
func run(ctx *spark.Context, name string, cfg config, body func() (float64, error)) (*Result, error) {
	if !cfg.valid() {
		return nil, fmt.Errorf("hibench: %s: a config field is missing or out of range: %+v", name, cfg)
	}
	ctx.ResetStages()
	start := ctx.Clock()
	metric, err := body()
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:   name,
		Stages: ctx.Stages(),
		Total:  ctx.Clock() - start,
		Metric: metric,
	}, nil
}

// LabeledPoint is one training example.
type LabeledPoint struct {
	Label    float64
	Features []float64
}

// pointCodec serializes LabeledPoint values for the ingestion shuffle.
type pointCodec struct{}

// Encode implements spark.Codec.
func (pointCodec) Encode(buf *bytebuf.Buf, p LabeledPoint) {
	spark.Float64Codec{}.Encode(buf, p.Label)
	spark.Float64SliceCodec{}.Encode(buf, p.Features)
}

// Decode implements spark.Codec.
func (pointCodec) Decode(buf *bytebuf.Buf) (LabeledPoint, error) {
	label, err := spark.Float64Codec{}.Decode(buf)
	if err != nil {
		return LabeledPoint{}, err
	}
	features, err := spark.Float64SliceCodec{}.Decode(buf)
	return LabeledPoint{Label: label, Features: features}, err
}

// pointsRDD builds the training set the way HiBench does: the generator
// writes the dataset to distributed storage and the workload re-reads and
// repartitions it before caching — one full ingestion shuffle, which is
// where a large part of the communication sensitivity of the ML suite
// comes from. Features are drawn around two class centers, labels ±1.
func pointsRDD(ctx *spark.Context, parts, perPart, dim int, seed int64) *spark.RDD[LabeledPoint] {
	raw := spark.Generate(ctx, parts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, LabeledPoint] {
		rng := rand.New(rand.NewSource(seed + int64(part)))
		out := make([]spark.Pair[int64, LabeledPoint], perPart)
		for i := range out {
			label := 1.0
			if rng.Intn(2) == 0 {
				label = -1.0
			}
			f := make([]float64, dim)
			for d := range f {
				f[d] = rng.NormFloat64() + label*0.5
			}
			out[i] = spark.Pair[int64, LabeledPoint]{
				K: int64(part*perPart + i),
				V: LabeledPoint{Label: label, Features: f},
			}
		}
		tc.ChargeRecords(perPart, perPart*dim*8)
		return out
	})
	conf := spark.ShuffleConf[int64, LabeledPoint]{
		Codec: spark.PairCodec[int64, LabeledPoint]{Key: spark.Int64Codec{}, Val: pointCodec{}},
		Ops:   spark.Int64Key{},
	}
	ingested := spark.Repartition(raw, conf, parts)
	return spark.Map(ingested, func(p spark.Pair[int64, LabeledPoint]) LabeledPoint { return p.V }).Cache()
}

// treeAggregate reduces per-partition float vectors of width dim to the
// driver via spark.TreeAggregate: per-executor accumulation followed by a
// collective reduce/allreduce, so gradient aggregation rides the
// collective layer instead of an intermediate shuffle.
func treeAggregate[T any](data *spark.RDD[T], dim int, partial func(part int, tc *spark.TaskContext, items []T) []float64) ([]float64, error) {
	return spark.TreeAggregate(data, dim, partial)
}

// flopNs is the modeled cost of one floating-point-heavy loop iteration in
// JVM ML code.
const flopNs = 1.1

// chargeFlops charges n floating-point operations to the task.
func chargeFlops(tc *spark.TaskContext, n int) {
	tc.Charge(time.Duration(flopNs * float64(n)))
}

// dot computes a·b.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// logistic is the sigmoid function.
func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
