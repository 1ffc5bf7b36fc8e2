package harness

import (
	"testing"

	"mpi4spark/internal/spark"
)

// TestNetChaosConformance is the end-to-end chaos gate for all four
// backends: GroupByTest under the seeded paper schedule (1% drop, 0.1%
// corruption, duplicate delivery, one mid-reduce partition-and-heal) and
// under the stress schedule (5% corruption, 3% duplication). runNetChaos
// itself enforces the hard invariants — faulty output bit-identical to the
// clean run, injected corruptions == detected == BlockCorrupt events — so
// this test asserts on top that the stress schedule produced non-trivial
// witnesses: corrupt frames actually landed and were repaired, and
// duplicate deliveries actually fired and were absorbed.
func TestNetChaosConformance(t *testing.T) {
	o := Options{BytesPerWorker: 4 << 20}
	o.defaults()
	for _, backend := range backends {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			rows, _, err := runNetChaos(o, []spark.Backend{backend}, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Schedule != "stress" {
					continue
				}
				if r.Corrupts == 0 || r.Detected == 0 {
					t.Errorf("stress schedule landed no corruptions (injected=%d detected=%d) — seam dead?",
						r.Corrupts, r.Detected)
				}
				if r.Dups == 0 {
					t.Error("stress schedule delivered no duplicates — dup seam dead?")
				}
				if r.Refetches == 0 {
					t.Error("corruptions detected but no refetches — degradation chain did not run")
				}
			}
		})
	}
}
