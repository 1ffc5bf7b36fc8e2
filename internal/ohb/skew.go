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
	// hottest key (key 0, which hashes to reduce partition 0), in (0, 1).
	HotKeyFraction float64
	// ZipfS is the Zipf exponent (> 1) shaping the non-hot keys across
	// [1, KeyRange).
	ZipfS float64
}

// Validate checks that every field is in range; it fills none.
func (c SkewConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.HotKeyFraction <= 0 || c.HotKeyFraction >= 1 {
		return fmt.Errorf("ohb: HotKeyFraction must be in (0, 1), got %g", c.HotKeyFraction)
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("ohb: ZipfS must be > 1, got %g", c.ZipfS)
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

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64 is FNV-1a over a byte slice, for order-insensitive checksums.
func fnv64(b []byte) uint64 { return fnvFold(fnvOffset, b) }

// fnvFold continues an FNV-1a hash h over b.
func fnvFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// groupChecksum is Σ fnv64(v) over vs (mod 2^64). It hashes four values
// per pass: one byte-serial FNV chain waits on its multiply every byte,
// four independent chains keep the multiplier busy. Each chain runs over
// the four values' common length, then finishes its own value's tail.
func groupChecksum(vs [][]byte) uint64 {
	var sum uint64
	for ; len(vs) >= 4; vs = vs[4:] {
		a, b, c, d := vs[0], vs[1], vs[2], vs[3]
		n := min(len(a), len(b), len(c), len(d))
		h0, h1, h2, h3 := fnv4(a[:n], b[:n], c[:n], d[:n])
		sum += fnvFold(h0, a[n:]) + fnvFold(h1, b[n:]) + fnvFold(h2, c[n:]) + fnvFold(h3, d[n:])
	}
	for _, v := range vs {
		sum += fnv64(v)
	}
	return sum
}

// fnv4 runs four FNV-1a chains in step over four slices of a's length.
// Kept out of groupChecksum so its four hashes stay in registers.
//
//go:noinline
func fnv4(a, b, c, d []byte) (h0, h1, h2, h3 uint64) {
	h0, h1, h2, h3 = fnvOffset, fnvOffset, fnvOffset, fnvOffset
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	for i := range a {
		h0 = (h0 ^ uint64(a[i])) * fnvPrime
		h1 = (h1 ^ uint64(b[i])) * fnvPrime
		h2 = (h2 ^ uint64(c[i])) * fnvPrime
		h3 = (h3 ^ uint64(d[i])) * fnvPrime
	}
	return h0, h1, h2, h3
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
			return acc + g + groupChecksum(p.V)
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
