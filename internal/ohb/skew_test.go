package ohb

import (
	"math/rand"
	"testing"
)

// TestSkewConfigValidate: an out-of-range skew is an error, not a run of
// some other skew (HotKeyFraction 1.0 used to run at 0.5, ZipfS 0.5 at 1.2).
func TestSkewConfigValidate(t *testing.T) {
	base := Config{Mappers: 2, Reducers: 2, PairsPerMapper: 100, ValueBytes: 100, KeyRange: 51, Seed: 1}
	for _, tc := range []struct {
		hot, s float64
		keys   int64
		ok     bool
	}{
		{0.5, 1.2, 51, true},
		{1.0, 1.2, 51, false},
		{0, 1.2, 51, false},
		{-0.1, 1.2, 51, false},
		{0.5, 0.5, 51, false},
		{0.5, 1, 51, false},
		{0.5, 0, 51, false},
		{0.5, 1.2, 1, false},
	} {
		c := SkewConfig{Config: base, HotKeyFraction: tc.hot, ZipfS: tc.s}
		c.KeyRange = tc.keys
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("HotKeyFraction %g, ZipfS %g, KeyRange %d: Validate() = %v, want ok=%v", tc.hot, tc.s, tc.keys, err, tc.ok)
		}
	}
}

// TestGroupChecksumMatchesScalar holds the four-lane kernel to the scalar
// sum Σ fnv64(v) for groups of 0-9 values of 0-200 bytes, equal-length and
// mixed-length, so every lane tail and every leftover value count (the
// group size mod 4) is covered. fnv64 itself is pinned by FNV-1a 64's
// published test vectors.
func TestGroupChecksumMatchesScalar(t *testing.T) {
	for in, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		if got := fnv64([]byte(in)); got != want {
			t.Fatalf("fnv64(%q) = %#x, want %#x", in, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	value := func(n int) []byte {
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	check := func(vs [][]byte) {
		t.Helper()
		var want uint64
		for _, v := range vs {
			want += fnv64(v)
		}
		if got := groupChecksum(vs); got != want {
			lens := make([]int, len(vs))
			for i, v := range vs {
				lens[i] = len(v)
			}
			t.Fatalf("groupChecksum(lengths %v) = %#x, want %#x", lens, got, want)
		}
	}
	for size := 0; size <= 9; size++ {
		for n := 0; n <= 200; n += 7 {
			same := make([][]byte, size)
			for i := range same {
				same[i] = value(n)
			}
			check(same)
		}
		for trial := 0; trial < 50; trial++ {
			mixed := make([][]byte, size)
			for i := range mixed {
				mixed[i] = value(rng.Intn(201))
			}
			check(mixed)
		}
	}
}

// BenchmarkGroupChecksum compares the four-lane kernel with the scalar
// loop it replaces over a group of 64 values of 100 bytes, the skewed
// GroupBy's value size.
func BenchmarkGroupChecksum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([][]byte, 64)
	for i := range vs {
		vs[i] = make([]byte, 100)
		rng.Read(vs[i])
	}
	var sink uint64
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(vs) * 100))
		for i := 0; i < b.N; i++ {
			for _, v := range vs {
				sink += fnv64(v)
			}
		}
	})
	b.Run("four-lane", func(b *testing.B) {
		b.SetBytes(int64(len(vs) * 100))
		for i := 0; i < b.N; i++ {
			sink += groupChecksum(vs)
		}
	})
	_ = sink
}
