package shuffle_test

import (
	"testing"

	"mpi4spark/internal/spark/shuffle"
)

// BenchmarkShuffleFetchBatched measures a reduce task's batched fetch of
// many blocks from one remote peer — the grouped-request path the OHB
// GroupByTest exercises — on each transport. Run by the CI bench smoke
// step (go test -bench=Shuffle -benchtime=1x ./...).
func BenchmarkShuffleFetchBatched(b *testing.B) {
	for _, transport := range conformanceTransports {
		b.Run(transport, func(b *testing.B) {
			cl := newConfCluster(b, transport, 2)
			const shuffleID, nMaps, blockSize = 1, 8, 64 << 10
			server := cl.peers[1]
			statuses := make([]*shuffle.MapStatus, nMaps)
			for m := 0; m < nMaps; m++ {
				statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{confBlock(m, 0, blockSize)}, server.loc)
			}
			reducer := cl.peers[0]
			b.SetBytes(nMaps * blockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := reducer.sm.FetchShuffleParts(shuffleID, 0, statuses, reducer.id, reducer.bts, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
