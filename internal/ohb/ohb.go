// Package ohb reimplements the OSU HiBD Benchmarks (OHB) RDD suite used in
// the paper's Figures 9-11: GroupByTest and SortByTest, including the
// paper's stage accounting — Job0-ResultStage (data generation into the
// cache), JobN-ShuffleMapStage (shuffle write), and JobN-ResultStage
// (shuffle read, where the communication dominates).
package ohb

import (
	"fmt"
	"math/rand"

	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

// Config parameterizes an OHB RDD benchmark run.
type Config struct {
	// Mappers is the number of data-generation partitions.
	Mappers int
	// Reducers is the number of reduce partitions.
	Reducers int
	// PairsPerMapper is the number of key-value pairs each mapper emits.
	PairsPerMapper int
	// ValueBytes is the value payload size.
	ValueBytes int
	// KeyRange bounds the key space (number of distinct keys).
	KeyRange int64
	// Seed makes data generation deterministic.
	Seed int64
}

// Validate checks that every field is in range. It fills none: a config
// is a complete description of the job.
func (c Config) Validate() error {
	if c.Mappers < 1 || c.Reducers < 1 {
		return fmt.Errorf("ohb: mappers/reducers must be >= 1")
	}
	if c.PairsPerMapper < 1 {
		return fmt.Errorf("ohb: need at least one pair per mapper")
	}
	if c.ValueBytes < 1 {
		return fmt.Errorf("ohb: ValueBytes must be >= 1, got %d", c.ValueBytes)
	}
	if c.KeyRange < 1 {
		return fmt.Errorf("ohb: KeyRange must be >= 1, got %d", c.KeyRange)
	}
	return nil
}

// Result captures a benchmark run's stage breakdown and outcome.
type Result struct {
	Name   string
	Config Config
	// Stages holds the run's stage timings in execution order.
	Stages []spark.StageTiming
	// Total is the virtual time from job submission to completion.
	Total vtime.Stamp
	// Output is the action's result (group count or record count).
	Output int64
}

// ShuffleReadStage returns the final ResultStage that read a shuffle (the
// shuffle-read stage in the paper's breakdown), or a zero timing.
func (r *Result) ShuffleReadStage() spark.StageTiming {
	for i := len(r.Stages) - 1; i >= 0; i-- {
		if s := r.Stages[i]; s.Kind == "ResultStage" && s.ShuffleBytes > 0 {
			return s
		}
	}
	return spark.StageTiming{}
}

// ShuffleReadTime returns the shuffle-read stage's duration.
func (r *Result) ShuffleReadTime() vtime.Stamp { return r.ShuffleReadStage().Duration() }

// generate builds the cached input RDD and runs the data-generation job
// (Job0-ResultStage in the paper's breakdown).
func generate(ctx *spark.Context, cfg Config) (*spark.RDD[spark.Pair[int64, []byte]], error) {
	data := spark.Generate(ctx, cfg.Mappers, func(part int, tc *spark.TaskContext) []spark.Pair[int64, []byte] {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(part)))
		out := make([]spark.Pair[int64, []byte], cfg.PairsPerMapper)
		// One shared value template per partition keeps memory bounded
		// while byte accounting still uses the real length.
		val := make([]byte, cfg.ValueBytes)
		rng.Read(val)
		for i := range out {
			out[i] = spark.Pair[int64, []byte]{K: rng.Int63n(cfg.KeyRange), V: val}
		}
		tc.ChargeRecords(cfg.PairsPerMapper, cfg.PairsPerMapper*(cfg.ValueBytes+8))
		return out
	}).Cache()
	// Job 0: materialize the generated data.
	if _, err := spark.Count(data); err != nil {
		return nil, err
	}
	return data, nil
}

func conf(cfg Config) spark.ShuffleConf[int64, []byte] {
	return spark.ShuffleConf[int64, []byte]{
		Codec: spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}},
		Ops:   spark.Int64Key{},
		Parts: cfg.Reducers,
	}
}

// RunGroupByTest executes OHB's GroupByTest: generate-and-cache, then
// groupByKey().count().
func RunGroupByTest(ctx *spark.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx.ResetStages()
	start := ctx.Clock()
	data, err := generate(ctx, cfg)
	if err != nil {
		return nil, err
	}
	grouped := spark.GroupByKey(data, conf(cfg))
	n, err := spark.Count(grouped)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:   "GroupByTest",
		Config: cfg,
		Stages: ctx.Stages(),
		Total:  ctx.Clock() - start,
		Output: n,
	}, nil
}

// RunSortByTest executes OHB's SortByTest: generate-and-cache, a sampling
// job for the range partitioner (Job1, as in Spark's sortByKey), then the
// sort job (Job2-ShuffleMapStage + Job2-ResultStage).
func RunSortByTest(ctx *spark.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx.ResetStages()
	start := ctx.Clock()
	data, err := generate(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sample, err := spark.SampleKeys(data, 16) // Job 1: sampling pass
	if err != nil {
		return nil, err
	}
	sorted := spark.SortByKey(data, conf(cfg), sample)
	n, err := spark.Count(sorted)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:   "SortByTest",
		Config: cfg,
		Stages: ctx.Stages(),
		Total:  ctx.Clock() - start,
		Output: n,
	}, nil
}
