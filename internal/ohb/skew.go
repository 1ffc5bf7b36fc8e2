package ohb

import (
	"fmt"
	"math/rand"

	"mpi4spark/internal/spark"
)

// SkewConfig parameterizes the skewed-key workloads: a single hot key
// receives a fixed fraction of all pairs and the remainder follow a
// Zipf distribution, reproducing the hot-partition shape that defeats
// uniform reduce partitioning.
type SkewConfig struct {
	Config
	// HotKeyFraction is the fraction of all pairs carrying the single
	// hottest key (key 0, which hashes to reduce partition 0). The
	// default 0.5 puts half the shuffle volume in one partition.
	HotKeyFraction float64
	// ZipfS is the Zipf exponent (> 1) shaping the non-hot keys across
	// [1, KeyRange). Default 1.2.
	ZipfS float64
}

// Validate fills defaults and checks bounds.
func (c *SkewConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.HotKeyFraction <= 0 || c.HotKeyFraction >= 1 {
		c.HotKeyFraction = 0.5
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.KeyRange < 2 {
		return fmt.Errorf("ohb: skewed workload needs KeyRange >= 2")
	}
	return nil
}

// generateSkewed builds and caches the skewed input RDD. Generation is
// seeded per partition, so the data set is identical across backends and
// across adaptive on/off runs.
func generateSkewed(ctx *spark.Context, cfg SkewConfig) (*spark.RDD[spark.Pair[int64, []byte]], error) {
	data := spark.Generate(ctx, cfg.Mappers, func(part int, tc *spark.TaskContext) []spark.Pair[int64, []byte] {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(part)))
		zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.KeyRange-2))
		out := make([]spark.Pair[int64, []byte], cfg.PairsPerMapper)
		val := make([]byte, cfg.ValueBytes)
		rng.Read(val)
		for i := range out {
			k := int64(0)
			if rng.Float64() >= cfg.HotKeyFraction {
				k = 1 + int64(zipf.Uint64())
			}
			out[i] = spark.Pair[int64, []byte]{K: k, V: val}
		}
		tc.ChargeRecords(cfg.PairsPerMapper, cfg.PairsPerMapper*(cfg.ValueBytes+8))
		return out
	}).Cache()
	if _, err := spark.Count(data); err != nil {
		return nil, err
	}
	return data, nil
}

// fnv64 is FNV-1a over a byte slice, for order-insensitive checksums.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// RunSkewedGroupBy executes GroupByTest over the skewed key distribution
// and returns an order-insensitive checksum of the groups as Output, so
// runs with different physical plans (adaptive on/off, any backend) can be
// compared for bit-identical results. The checksum folds each group's key
// hash, group size, and the FNV of every value with commutative operations
// only — group order and value order inside a group do not affect it.
func RunSkewedGroupBy(ctx *spark.Context, cfg SkewConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx.ResetStages()
	start := ctx.Clock()
	data, err := generateSkewed(ctx, cfg)
	if err != nil {
		return nil, err
	}
	grouped := spark.GroupByKey(data, conf(cfg.Config))
	sum, err := spark.Aggregate(grouped,
		func() uint64 { return 0 },
		func(acc uint64, p spark.Pair[int64, [][]byte]) uint64 {
			g := spark.Int64Key{}.Hash(p.K) ^ (0x9E3779B97F4A7C15 * uint64(len(p.V)))
			for _, v := range p.V {
				g += fnv64(v)
			}
			return acc + g
		},
		func(a, b uint64) uint64 { return a + b }, 8)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:   "SkewedGroupBy",
		Config: cfg.Config,
		Stages: ctx.Stages(),
		Total:  ctx.Clock() - start,
		Output: int64(sum),
	}, nil
}
