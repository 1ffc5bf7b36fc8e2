package rdma

import (
	"bytes"
	"fmt"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

func twoDevices(t *testing.T) (*Device, *Device, *fabric.Fabric) {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	a := OpenDevice(f.AddNode("a"))
	b := OpenDevice(f.AddNode("b"))
	return a, b, f
}

func TestConnectQPReadyTime(t *testing.T) {
	a, b, f := twoDevices(t)
	_, _, ready := ConnectQP(a, b, 1000)
	c := f.Model().Costs[fabric.RDMA]
	want := vtime.Stamp(1000).Add(2 * (c.Latency + c.SendOverhead + c.RecvOverhead))
	if ready != want {
		t.Fatalf("ready = %v, want %v", ready, want)
	}
}

func TestPostSendRecvCompletion(t *testing.T) {
	a, b, _ := twoDevices(t)
	qpA, qpB, ready := ConnectQP(a, b, 0)
	payload := []byte("verbs payload")
	cpuFree, err := qpA.PostSend(payload, ready)
	if err != nil {
		t.Fatal(err)
	}
	if cpuFree <= ready {
		t.Fatalf("cpuFree = %v", cpuFree)
	}
	if n := qpA.CQ().q.Len(); n != 0 {
		t.Fatalf("sender's CQ holds %d completions; a SEND posts none on its own side", n)
	}
	rc, err := qpB.CQ().Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.Data, payload) {
		t.Fatalf("recv completion = %+v", rc)
	}
	if rc.VT <= cpuFree {
		t.Fatalf("delivery %v not after sender cpu-free %v", rc.VT, cpuFree)
	}
}

func TestCloseBothEnds(t *testing.T) {
	a, b, _ := twoDevices(t)
	qpA, qpB, _ := ConnectQP(a, b, 0)
	qpA.Close()
	if _, err := qpB.PostSend([]byte("x"), 0); err != ErrClosed {
		t.Fatalf("peer PostSend after close: %v", err)
	}
	if _, err := qpB.CQ().Wait(); err != ErrClosed {
		t.Fatalf("peer CQ Wait after close: %v", err)
	}
	qpA.Close() // idempotent
}

func TestRegistrationCostScales(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	d := OpenDevice(f.AddNode("x"))
	_, small := d.RegisterMemory(make([]byte, 4<<10), 0)
	_, large := d.RegisterMemory(make([]byte, 4<<20), 0)
	if large <= small {
		t.Fatalf("registration cost not size-dependent: %v vs %v", small, large)
	}
}

func TestManyQPsIndependent(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	hub := OpenDevice(f.AddNode("hub"))
	for i := 0; i < 4; i++ {
		leaf := OpenDevice(f.AddNode(fmt.Sprintf("leaf%d", i)))
		qpL, qpH, _ := ConnectQP(leaf, hub, 0)
		if _, err := qpL.PostSend([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		c, err := qpH.CQ().Wait()
		if err != nil || c.Data[0] != byte(i) {
			t.Fatalf("qp %d: %v %v", i, c, err)
		}
	}
}

// TestPostSendGather: header and payload travel as one SEND, by reference.
func TestPostSendGather(t *testing.T) {
	a, b, f := twoDevices(t)
	qpA, qpB, ready := ConnectQP(a, b, 0)
	head, body := []byte("chunk-header"), make([]byte, 64<<10)
	if _, err := qpA.PostSendGather(head, body, ready); err != nil {
		t.Fatal(err)
	}
	rc, err := qpB.CQ().Wait()
	if err != nil {
		t.Fatal(err)
	}
	if &rc.Data[0] != &head[0] || &rc.Body[0] != &body[0] {
		t.Fatalf("recv completion copied its parts: %d + %d bytes", len(rc.Data), len(rc.Body))
	}
	if s := f.Stats(); s.MessagesFor(fabric.RDMA) != 1 || s.BytesFor(fabric.RDMA) != int64(len(head)+len(body)) {
		t.Fatalf("fabric saw %d messages, %d bytes", s.MessagesFor(fabric.RDMA), s.BytesFor(fabric.RDMA))
	}
}
