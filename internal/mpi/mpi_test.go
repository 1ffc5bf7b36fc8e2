package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// newTestComm builds a world with n processes, one per node.
func newTestComm(t *testing.T, n int, model *fabric.Model) *Comm {
	t.Helper()
	f := fabric.New(model)
	nodes := make([]*fabric.Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("node%d", i))
	}
	w := NewWorld(f)
	return w.InitWorld(nodes)
}

// spmd runs body once per rank concurrently and waits for all.
func spmd(t *testing.T, c *Comm, body func(h *Handle)) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < c.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(c.Handle(rank))
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("SPMD program deadlocked")
	}
}

func TestSendRecvEager(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	spmd(t, c, func(h *Handle) {
		switch h.Rank() {
		case 0:
			free := h.Send(1, 5, []byte("payload"), 100)
			if free <= 100 {
				t.Errorf("send cpu-free %v not after start", free)
			}
		case 1:
			data, st := h.Recv(0, 5, 0)
			if string(data) != "payload" {
				t.Errorf("data = %q", data)
			}
			if st.Source != 0 || st.Tag != 5 || st.Count != 7 {
				t.Errorf("status = %+v", st)
			}
			if st.VT <= 0 {
				t.Errorf("recv VT = %v", st.VT)
			}
		}
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	big := make([]byte, 1<<20) // over the eager threshold
	big[0], big[len(big)-1] = 0xA, 0xB
	spmd(t, c, func(h *Handle) {
		switch h.Rank() {
		case 0:
			h.Send(1, 1, big, 0)
		case 1:
			data, st := h.Recv(0, 1, 0)
			if len(data) != 1<<20 || data[0] != 0xA || data[len(data)-1] != 0xB {
				t.Error("rendezvous payload corrupted")
			}
			// Rendezvous must include RTS+CTS round trip plus bulk transfer.
			f := h.Comm().world.fabric
			minTime := vtime.Duration(f.TransferTime(fabric.MPIRendezvous, 1<<20))
			if st.VT < minTime {
				t.Errorf("rendezvous VT %v below bulk transfer floor %v", st.VT, minTime)
			}
		}
	})
}

func TestRendezvousSenderBlocksUntilMatch(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	big := make([]byte, 256<<10)
	sendReturned := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		h := c.Handle(0)
		h.Send(1, 9, big, 0)
		close(sendReturned)
	}()
	go func() {
		defer wg.Done()
		<-release
		h := c.Handle(1)
		h.Recv(0, 9, 0)
	}()
	select {
	case <-sendReturned:
		t.Fatal("rendezvous Send returned before receiver matched")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()
}

func TestEagerDoesNotBlock(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	h := c.Handle(0)
	done := make(chan struct{})
	go func() {
		h.Send(1, 3, []byte("small"), 0) // no receiver posted
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("eager send blocked without a receiver")
	}
}

func TestWildcardSourceAndTag(t *testing.T) {
	c := newTestComm(t, 3, fabric.NewZeroModel())
	spmd(t, c, func(h *Handle) {
		switch h.Rank() {
		case 0, 1:
			h.Send(2, 10+h.Rank(), []byte{byte(h.Rank())}, 0)
		case 2:
			seen := map[byte]bool{}
			for i := 0; i < 2; i++ {
				data, st := h.Recv(AnySource, AnyTag, 0)
				seen[data[0]] = true
				if st.Source != int(data[0]) {
					t.Errorf("status source %d != payload %d", st.Source, data[0])
				}
				if st.Tag != 10+int(data[0]) {
					t.Errorf("status tag %d", st.Tag)
				}
			}
			if !seen[0] || !seen[1] {
				t.Errorf("seen = %v", seen)
			}
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewZeroModel())
	spmd(t, c, func(h *Handle) {
		const n = 50
		switch h.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				h.Send(1, 7, []byte{byte(i)}, 0)
			}
		case 1:
			for i := 0; i < n; i++ {
				data, _ := h.Recv(0, 7, 0)
				if data[0] != byte(i) {
					t.Errorf("message %d overtaken by %d", i, data[0])
					return
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewZeroModel())
	spmd(t, c, func(h *Handle) {
		switch h.Rank() {
		case 0:
			h.Send(1, 1, []byte("first-sent"), 0)
			h.Send(1, 2, []byte("second-sent"), 0)
		case 1:
			// Receive tag 2 first even though tag 1 arrived earlier.
			d2, _ := h.Recv(0, 2, 0)
			d1, _ := h.Recv(0, 1, 0)
			if string(d2) != "second-sent" || string(d1) != "first-sent" {
				t.Errorf("tag matching broken: %q, %q", d2, d1)
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	spmd(t, c, func(h *Handle) {
		peer := 1 - h.Rank()
		sreq := h.Isend(peer, 4, []byte{byte(h.Rank())}, 0)
		rreq := h.Irecv(peer, 4, 0)
		data, st := rreq.Wait(0)
		if data[0] != byte(peer) {
			t.Errorf("rank %d got %d", h.Rank(), data[0])
		}
		if st.VT <= 0 {
			t.Errorf("VT = %v", st.VT)
		}
		sreq.Wait(0)
	})
}

func TestProbeAndIprobe(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	h0, h1 := c.Handle(0), c.Handle(1)
	if ok, _ := h1.Iprobe(0, 3, 0); ok {
		t.Fatal("Iprobe true on empty queue")
	}
	h0.Send(1, 3, []byte("abc"), 0)
	ok, st := h1.Iprobe(0, 3, 0)
	if !ok || st.Count != 3 || st.Source != 0 || st.Tag != 3 {
		t.Fatalf("Iprobe = %v, %+v", ok, st)
	}
	// Iprobe must not consume.
	if ok, st2 := h1.Iprobe(0, 3, 0); !ok || st2.Count != 3 {
		t.Fatalf("second Iprobe = %v, %+v", ok, st2)
	}
	data, _ := h1.Recv(0, 3, 0)
	if string(data) != "abc" {
		t.Fatalf("data = %q", data)
	}
	if ok, _ := h1.Iprobe(0, 3, 0); ok {
		t.Fatal("message still probed after Recv")
	}
}

func TestProbeSeesRendezvousEnvelope(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	big := make([]byte, 512<<10)
	go c.Handle(0).Send(1, 8, big, 0)
	arrived := make(chan struct{}, 1)
	c.Handle(1).NotifyArrival(func() {
		select {
		case arrived <- struct{}{}:
		default:
		}
	})
	ok, st := c.Handle(1).Iprobe(0, 8, 0)
	for ; !ok; ok, st = c.Handle(1).Iprobe(0, 8, 0) {
		<-arrived
	}
	if st.Count != len(big) {
		t.Fatalf("probed count = %d, want %d", st.Count, len(big))
	}
	data, _ := c.Handle(1).Recv(0, 8, 0)
	if len(data) != len(big) {
		t.Fatalf("recv len = %d", len(data))
	}
}

func TestSelfSend(t *testing.T) {
	c := newTestComm(t, 1, fabric.NewIBHDRModel())
	h := c.Handle(0)
	h.Send(0, 1, []byte("self"), 0)
	data, st := h.Recv(0, 1, 0)
	if string(data) != "self" {
		t.Fatalf("data = %q", data)
	}
	if st.VT <= 0 {
		t.Fatal("self-send should still cost loopback time")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := newTestComm(t, 5, fabric.NewIBHDRModel())
	exits := make([]vtime.Stamp, 5)
	spmd(t, c, func(h *Handle) {
		start := vtime.Stamp(int64(h.Rank()) * 1e6) // staggered entry
		exits[h.Rank()] = h.Barrier(start)
	})
	// Every exit must be at or after the latest entry.
	latest := vtime.Stamp(4e6)
	for r, e := range exits {
		if e < latest {
			t.Errorf("rank %d exited barrier at %v, before last entry %v", r, e, latest)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		c := newTestComm(t, n, fabric.NewIBHDRModel())
		spmd(t, c, func(h *Handle) {
			out, _ := h.Allgather([]byte{byte(h.Rank() * 2)}, 0)
			if len(out) != n {
				t.Errorf("n=%d len=%d", n, len(out))
				return
			}
			for i := 0; i < n; i++ {
				if out[i][0] != byte(i*2) {
					t.Errorf("n=%d rank %d out[%d]=%d", n, h.Rank(), i, out[i][0])
				}
			}
		})
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Two consecutive collectives on one communicator must not cross-match.
	c := newTestComm(t, 4, fabric.NewZeroModel())
	spmd(t, c, func(h *Handle) {
		a, _ := h.Allgather([]byte{1}, 0)
		b, _ := h.Allgather([]byte{2}, 0)
		for i := range a {
			if a[i][0] != 1 || b[i][0] != 2 {
				t.Errorf("collective instances crossed: %v %v", a[i], b[i])
			}
		}
	})
}

func TestSpawnMultiple(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	nA, nB := f.AddNode("a"), f.AddNode("b")
	w := NewWorld(f)
	parents := w.InitWorld([]*fabric.Node{nA, nB})

	childEcho := func(ctx *ChildContext) error {
		// Each child reports its world rank to parent rank 0 over the
		// intercommunicator.
		msg := []byte{byte(ctx.World.Rank())}
		ctx.Parent.Send(0, 99, msg, ctx.StartVT)
		// And participates in a child-world barrier (DPM_COMM traffic).
		ctx.World.Barrier(ctx.StartVT)
		return nil
	}

	var inter0 *Handle
	spmd(t, parents, func(h *Handle) {
		specs := []SpawnSpec{
			{Node: nA, Count: 1, Args: []byte("exec-args-a"), Main: childEcho},
			{Node: nB, Count: 1, Args: []byte("exec-args-b"), Main: childEcho},
		}
		inter, vt := h.SpawnMultiple(specs, 0, 0)
		if vt <= 0 {
			t.Errorf("spawn vt = %v", vt)
		}
		if n := len(inter.comm.remote); n != 2 {
			t.Errorf("remote size = %d", n)
		}
		if h.Rank() == 0 {
			inter0 = inter
		}
	})

	seen := map[byte]bool{}
	for i := 0; i < 2; i++ {
		data, st := inter0.Recv(AnySource, 99, 0)
		seen[data[0]] = true
		if st.Source != int(data[0]) {
			t.Errorf("intercomm source %d vs payload %d", st.Source, data[0])
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("child ranks seen = %v", seen)
	}
}

func TestHandleOutOfRangePanics(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewZeroModel())
	defer func() {
		if recover() == nil {
			t.Fatal("Handle(5) did not panic")
		}
	}()
	c.Handle(5)
}

// Property: an all-to-all exchange over non-blocking point-to-point (every
// rank Isends one part to every rank, itself included, then receives one
// from each) delivers a permutation-correct transpose for any sizes, with
// eager and rendezvous traffic crossing in both directions at once.
func TestAlltoallTransposeProperty(t *testing.T) {
	const n = 3
	c := newTestComm(t, n, fabric.NewIBHDRModel())
	f := func(seed uint8, sizes [n * n]uint16) bool {
		in := make([][][]byte, n)
		for r := 0; r < n; r++ {
			in[r] = make([][]byte, n)
			for d := 0; d < n; d++ {
				in[r][d] = bytes.Repeat([]byte{seed ^ byte(r*16+d)}, int(sizes[r*n+d])+1)
			}
		}
		out := make([][][]byte, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				h := c.Handle(rank)
				reqs := make([]*SendRequest, n)
				for d := range reqs {
					reqs[d] = h.Isend(d, 5, in[rank][d], 0)
				}
				out[rank] = make([][]byte, n)
				for s := range out[rank] {
					out[rank][s], _ = h.Recv(s, 5, 0)
				}
				for _, req := range reqs {
					req.Wait(0)
				}
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			for s := 0; s < n; s++ {
				if !bytes.Equal(out[r][s], in[s][r]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocTagUniqueAndAboveUserSpace(t *testing.T) {
	a, b := AllocTag(), AllocTag()
	if a == b {
		t.Fatal("AllocTag repeated")
	}
	if a < 1<<20 || a >= collTagBase {
		t.Fatalf("AllocTag %d outside reserved band", a)
	}
}

// TestSendrecvSymmetricExchange: two ranks that each start a rendezvous
// send and then receive from each other do not deadlock; each receive
// completes the other's send.
func TestSendrecvSymmetricExchange(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	spmd(t, c, func(h *Handle) {
		peer := 1 - h.Rank()
		big := make([]byte, 256<<10) // rendezvous-sized both ways
		big[0] = byte(h.Rank())
		sreq := h.Isend(peer, 7, big, 0)
		data, st := h.Recv(peer, 7, 0)
		vt := vtime.Max(sreq.Wait(0), st.VT)
		if data[0] != byte(peer) {
			t.Errorf("rank %d got payload from %d", h.Rank(), data[0])
		}
		if st.Source != peer || vt <= 0 {
			t.Errorf("status = %+v, vt = %v", st, vt)
		}
	})
}

// TestIsendGather: a gathered message picks its protocol on the combined
// length, reaches RecvGather as the sender's two slices, and is joined for
// a receiver that asks for one.
func TestIsendGather(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	head := []byte("frame-header")
	eagerBody := make([]byte, 1<<10)
	rndvBody := make([]byte, DefaultEagerThreshold) // head pushes the total past the threshold
	for i := range rndvBody {
		rndvBody[i] = byte(i)
	}
	// A send queues its envelope at the receiver before it returns: rank 1
	// probes for tag 2 only once rank 0 has posted it.
	posted := make(chan struct{})
	spmd(t, c, func(h *Handle) {
		switch h.Rank() {
		case 0:
			eager := h.IsendGather(1, 1, head, eagerBody, 0)
			if !eager.completed {
				t.Error("a gathered message under the threshold did not go eager")
			}
			rndv := h.IsendGather(1, 2, head, rndvBody, 0)
			close(posted)
			rndv.Wait(0)
			h.IsendGather(1, 3, head, rndvBody, 0).Wait(0)
		case 1:
			gh, gb, st := h.RecvGather(0, 1, 0)
			if &gh[0] != &head[0] || &gb[0] != &eagerBody[0] || st.Count != len(head)+len(eagerBody) {
				t.Errorf("eager gather: parts copied, or count %d", st.Count)
			}
			<-posted
			if ok, probed := h.Iprobe(0, 2, 0); !ok || probed.Count != len(head)+len(rndvBody) {
				t.Errorf("probe of a gathered rendezvous message: %v, count %d", ok, probed.Count)
			}
			gh, gb, st = h.RecvGather(0, 2, 0)
			if &gh[0] != &head[0] || &gb[0] != &rndvBody[0] || st.Count != len(head)+len(rndvBody) {
				t.Errorf("rendezvous gather: parts copied, or count %d", st.Count)
			}
			joined, st := h.Recv(0, 3, 0)
			if want := append(append([]byte(nil), head...), rndvBody...); !bytes.Equal(joined, want) || st.Count != len(want) {
				t.Errorf("plain Recv of a gathered message returned %d bytes, count %d", len(joined), st.Count)
			}
		}
	})
	if got := c.world.fabric.Stats().MessagesFor(fabric.MPIRendezvous); got != 2 {
		t.Fatalf("%d rendezvous transfers, want 2: the protocol must be chosen on head+body", got)
	}
}

// TestNotifyArrival: a notifier fires once at registration, once per
// message queued as unexpected (eager or rendezvous envelope), never for a
// message that a posted receive takes, and registrations add up.
func TestNotifyArrival(t *testing.T) {
	c := newTestComm(t, 2, fabric.NewIBHDRModel())
	sender, receiver := c.Handle(0), c.Handle(1)
	receiver.Isend(0, 9, []byte("the other way"), 0) // queued at rank 0: not rank 1's business

	var first, second int
	receiver.NotifyArrival(func() { first++ })
	if first != 1 {
		t.Fatalf("registration fired the notifier %d times, want 1", first)
	}
	sender.Isend(1, 1, []byte("eager"), 0)
	if first != 2 {
		t.Fatalf("after an unexpected eager message: %d, want 2", first)
	}
	sender.Isend(1, 2, make([]byte, DefaultEagerThreshold+1), 0)
	if first != 3 {
		t.Fatalf("after an unexpected rendezvous envelope: %d, want 3", first)
	}

	req := receiver.Irecv(0, 3, 0)
	sender.Isend(1, 3, []byte("expected"), 0)
	if data, _ := req.Wait(0); string(data) != "expected" {
		t.Fatalf("posted receive got %q", data)
	}
	if first != 3 {
		t.Fatalf("a message matched by a posted receive fired the notifier (%d)", first)
	}

	receiver.NotifyArrival(func() { second++ })
	sender.Isend(1, 4, []byte("both"), 0)
	if first != 4 || second != 2 {
		t.Fatalf("two notifiers after one more arrival: %d and %d, want 4 and 2", first, second)
	}
	if n := len(receiver.Proc().engine.unexpected); n != 3 {
		t.Fatalf("unexpected queue holds %d messages, want 3", n)
	}
}
