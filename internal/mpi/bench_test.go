package mpi

import (
	"fmt"
	"testing"

	"mpi4spark/internal/fabric"
)

func benchComm(n int) *Comm {
	f := fabric.New(fabric.NewIBHDRModel())
	nodes := make([]*fabric.Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("n%d", i))
	}
	return NewWorld(f).InitWorld(nodes)
}

// BenchmarkP2P measures simulation throughput of the matching engine for
// eager and rendezvous paths (wall time; virtual time is modeled).
func BenchmarkP2P(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			c := benchComm(2)
			payload := make([]byte, size)
			done := make(chan struct{})
			go func() {
				h := c.Handle(1)
				for i := 0; i < b.N; i++ {
					h.Recv(0, 1, 0)
				}
				close(done)
			}()
			h := c.Handle(0)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Send(1, 1, payload, 0)
			}
			<-done
		})
	}
}
