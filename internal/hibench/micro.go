package hibench

import (
	"fmt"
	"math/rand"

	"mpi4spark/internal/spark"
)

// TeraSortConfig parameterizes the TeraSort micro benchmark.
type TeraSortConfig struct {
	Parts   int
	RowsPer int
	Seed    int64
}

// teraValueBytes is the payload of TeraSort's 100-byte record, after its
// 10-byte key.
const teraValueBytes = 90

func (c TeraSortConfig) valid() bool {
	return c.Parts >= 1 && c.RowsPer >= 1
}

// RunTeraSort generates 100-byte records (10-byte keys) and sorts them
// globally. The metric is the sorted record count.
func RunTeraSort(ctx *spark.Context, cfg TeraSortConfig) (*Result, error) {
	return run(ctx, "TeraSort", cfg, func() (float64, error) {
		rows := spark.Generate(ctx, cfg.Parts, func(part int, tc *spark.TaskContext) []spark.Pair[string, []byte] {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(part)))
			out := make([]spark.Pair[string, []byte], cfg.RowsPer)
			val := make([]byte, teraValueBytes)
			rng.Read(val)
			key := make([]byte, 10)
			for i := range out {
				for j := range key {
					key[j] = byte('A' + rng.Intn(26))
				}
				out[i] = spark.Pair[string, []byte]{K: string(key), V: val}
			}
			tc.ChargeRecords(cfg.RowsPer, cfg.RowsPer*(10+teraValueBytes))
			return out
		}).Cache()
		if _, err := spark.Count(rows); err != nil {
			return 0, err
		}
		conf := spark.ShuffleConf[string, []byte]{
			Codec: spark.PairCodec[string, []byte]{Key: spark.StringCodec{}, Val: spark.BytesCodec{}},
			Ops:   spark.StringKey{},
			Parts: cfg.Parts,
		}
		sample, err := spark.SampleKeys(rows, 16)
		if err != nil {
			return 0, err
		}
		sorted := spark.SortByKey(rows, conf, sample)
		n, err := spark.Count(sorted)
		if err != nil {
			return 0, err
		}
		want := int64(cfg.Parts * cfg.RowsPer)
		if n != want {
			return 0, fmt.Errorf("terasort: lost records: %d != %d", n, want)
		}
		return float64(n), nil
	})
}

// RepartitionConfig parameterizes the Repartition micro benchmark, which
// is a pure shuffle: every byte crosses the network.
type RepartitionConfig struct {
	Parts     int
	RowsPer   int
	ValueSize int
	OutParts  int
	Seed      int64
}

func (c RepartitionConfig) valid() bool {
	return c.Parts >= 1 && c.RowsPer >= 1 && c.ValueSize >= 1 && c.OutParts >= 1
}

// RunRepartition shuffles the whole dataset into OutParts partitions. The
// metric is the record count after redistribution.
func RunRepartition(ctx *spark.Context, cfg RepartitionConfig) (*Result, error) {
	return run(ctx, "Repartition", cfg, func() (float64, error) {
		rows := spark.Generate(ctx, cfg.Parts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, []byte] {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(part)))
			out := make([]spark.Pair[int64, []byte], cfg.RowsPer)
			val := make([]byte, cfg.ValueSize)
			rng.Read(val)
			for i := range out {
				out[i] = spark.Pair[int64, []byte]{K: rng.Int63(), V: val}
			}
			tc.ChargeRecords(cfg.RowsPer, cfg.RowsPer*(8+cfg.ValueSize))
			return out
		}).Cache()
		if _, err := spark.Count(rows); err != nil {
			return 0, err
		}
		conf := spark.ShuffleConf[int64, []byte]{
			Codec: spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}},
			Ops:   spark.Int64Key{},
		}
		re := spark.Repartition(rows, conf, cfg.OutParts)
		n, err := spark.Count(re)
		if err != nil {
			return 0, err
		}
		return float64(n), nil
	})
}
