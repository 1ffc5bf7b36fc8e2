package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/vtime"
)

// randomThreshold is the eager threshold the random programs run under: small,
// so messages on both sides of it stay cheap.
const randomThreshold = 256

// plannedMsg is one message of a random program, as its sender posts it.
type plannedMsg struct {
	src, tag int
	// head and body are the parts handed to the send call; body is nil
	// unless the message goes out with IsendGather.
	head, body []byte
	kind       int // sendBlocking, sendIsend or sendGather
	yield      bool
}

const (
	sendBlocking = iota
	sendIsend
	sendGather
)

func (m *plannedMsg) size() int { return len(m.head) + len(m.body) }

func (m *plannedMsg) payload() []byte { return append(append([]byte(nil), m.head...), m.body...) }

// TestRandomP2PMatchesQueueModel runs seeded random programs over three
// ranks. Ranks 0, 1 and 2 send to rank 0 with Send, Isend and IsendGather, at
// sizes one under, at and one over the eager threshold and below it; rank 0
// drains them with Recv, Irecv, RecvGather and Iprobe under exact and
// wildcard source and tag, with and without a NotifyArrival notifier. Every
// receive is checked against a reference queue model: it returns the oldest
// remaining message of its source that the selector matches (non-overtaking),
// with the exact payload, parts and Status. Iprobe reports that message
// without consuming it, and reports nothing when no remaining message
// matches.
//
// The first failing seed ends the test: a receiver that went wrong leaves
// its senders blocked on rendezvous sends nobody will match.
func TestRandomP2PMatchesQueueModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		seed := seed
		if !t.Run(fmt.Sprint(seed), func(t *testing.T) { runRandomP2P(t, seed) }) {
			break
		}
	}
}

func runRandomP2P(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c := newTestComm(t, 3, fabric.NewIBHDRModel())
	c.world.EagerThreshold = randomThreshold
	sizes := []int{5, 40, randomThreshold - 1, randomThreshold, randomThreshold + 1}

	plan := make([][]*plannedMsg, 3)
	var total, rndv int
	for src := range plan {
		n := 4 + rng.Intn(6)
		for seq := 0; seq < n; seq++ {
			p := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(p)
			p[0] = byte(src)
			binary.BigEndian.PutUint32(p[1:5], uint32(seq))
			m := &plannedMsg{src: src, tag: rng.Intn(3), head: p, kind: rng.Intn(3), yield: rng.Intn(2) == 0}
			switch {
			case m.kind == sendGather:
				k := 1 + rng.Intn(len(p)-1)
				m.head, m.body = p[:k], p[k:]
			case m.kind == sendBlocking && len(p) > randomThreshold:
				// A blocking rendezvous Send returns only once matched, and
				// the receiver may ask for this sender's later messages
				// first: the program would be unsafe, so it posts an Isend.
				m.kind = sendIsend
			}
			if m.size() > randomThreshold {
				rndv++
			}
			plan[src] = append(plan[src], m)
			total++
		}
	}

	h := c.Handle(0)
	var notified atomic.Int64
	withNotify := rng.Intn(2) == 0
	if withNotify {
		h.NotifyArrival(func() { notified.Add(1) })
	}
	send := func(h *Handle, msgs []*plannedMsg) []*SendRequest {
		var reqs []*SendRequest
		for _, m := range msgs {
			switch m.kind {
			case sendBlocking:
				h.Send(0, m.tag, m.head, 0)
			case sendIsend:
				reqs = append(reqs, h.Isend(0, m.tag, m.head, 0))
			case sendGather:
				reqs = append(reqs, h.IsendGather(0, m.tag, m.head, m.body, 0))
			}
			if m.yield {
				runtime.Gosched()
			}
		}
		return reqs
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for src := 1; src < 3; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for _, r := range send(c.Handle(src), plan[src]) {
				r.Wait(0)
			}
		}(src)
	}
	var probed int
	go func() {
		defer close(done)
		own := send(h, plan[0])
		var ok bool
		if probed, ok = receiveAll(t, rng, h, plan, total); !ok {
			return // the senders wait on matches that will not come
		}
		for _, r := range own {
			r.Wait(0)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("seed %d: program deadlocked", seed)
	}
	if t.Failed() {
		return
	}

	if ok, st := h.Iprobe(AnySource, AnyTag, 0); ok {
		t.Fatalf("seed %d: a message is left over after every send was received: %+v", seed, st)
	}
	stats := c.world.fabric.Stats()
	if got := stats.MessagesFor(fabric.MPIRendezvous); got != int64(rndv) {
		t.Errorf("seed %d: %d rendezvous transfers, want %d: the protocol is chosen on the whole payload", seed, got, rndv)
	}
	if got, want := stats.MessagesFor(fabric.MPIEager), int64(total-rndv+2*rndv); got != want {
		t.Errorf("seed %d: %d eager transfers, want %d (eager payloads plus an RTS and a CTS per rendezvous)", seed, got, want)
	}
	if withNotify {
		// The notifier fires once at registration and once per message
		// queued unexpected, which every message Iprobe saw was.
		if n := notified.Load(); n < int64(1+probed) || n > int64(1+total) {
			t.Errorf("seed %d: notifier fired %d times for %d messages, %d of them probed", seed, n, total, probed)
		}
	}
}

// receiveAll is rank 0's side of a random program: it receives all total
// messages, each through a random call under a random selector that the
// model says some remaining message matches, and checks each result against
// the model. It returns how many messages it saw through Iprobe, and false
// once a check failed.
func receiveAll(t *testing.T, rng *rand.Rand, h *Handle, plan [][]*plannedMsg, total int) (probed int, ok bool) {
	remaining := make([][]*plannedMsg, len(plan))
	for src := range plan {
		remaining[src] = append([]*plannedMsg(nil), plan[src]...)
	}
	// oldest returns the first remaining message of src that tag matches.
	oldest := func(src, tag int) *plannedMsg {
		for _, m := range remaining[src] {
			if tag == AnyTag || m.tag == tag {
				return m
			}
		}
		return nil
	}
	// take checks a received message against the model and removes it.
	take := func(what string, selSrc, selTag int, head, body []byte, gathered bool, st Status, at vtime.Stamp) bool {
		t.Helper()
		if st.Source < 0 || st.Source >= len(plan) || (selSrc != AnySource && st.Source != selSrc) {
			t.Errorf("%s(%d, %d): status source %d", what, selSrc, selTag, st.Source)
			return false
		}
		m := oldest(st.Source, selTag)
		switch {
		case m == nil:
			t.Errorf("%s(%d, %d): got a message from %d, but none of its remaining ones matches", what, selSrc, selTag, st.Source)
			return false
		case st.Tag != m.tag || st.Count != m.size() || st.VT < at:
			t.Errorf("%s(%d, %d): status %+v, want source %d tag %d count %d at or after %v (the oldest match from that source)",
				what, selSrc, selTag, st, m.src, m.tag, m.size(), at)
			return false
		case !gathered && !bytes.Equal(head, m.payload()):
			t.Errorf("%s(%d, %d): payload is not the oldest match's (message overtaken?)", what, selSrc, selTag)
			return false
		case gathered && (!bytes.Equal(head, m.head) || !bytes.Equal(body, m.body)):
			t.Errorf("%s(%d, %d): parts %d+%d bytes, want the %d+%d sent", what, selSrc, selTag, len(head), len(body), len(m.head), len(m.body))
			return false
		case gathered && &head[0] != &m.head[0]:
			t.Errorf("%s(%d, %d): the head was copied", what, selSrc, selTag)
			return false
		}
		for i, r := range remaining[m.src] {
			if r == m {
				remaining[m.src] = append(remaining[m.src][:i], remaining[m.src][i+1:]...)
				break
			}
		}
		return true
	}

	for left := total; left > 0; left-- {
		// Aim the selector at a random remaining message, so something
		// matches, and widen source or tag to a wildcard half the time.
		var target *plannedMsg
		for target == nil {
			if src := rng.Intn(len(remaining)); len(remaining[src]) > 0 {
				target = remaining[src][rng.Intn(len(remaining[src]))]
			}
		}
		selSrc, selTag := target.src, target.tag
		if rng.Intn(2) == 0 {
			selSrc = AnySource
		}
		if rng.Intn(2) == 0 {
			selTag = AnyTag
		}
		at := vtime.Stamp(rng.Intn(1000))

		// A tag no message carries is never probed.
		if found, st := h.Iprobe(selSrc, 7, at); found {
			t.Errorf("Iprobe(%d, 7) found %+v, but no message has tag 7", selSrc, st)
			return probed, false
		}
		switch rng.Intn(5) {
		case 0:
			data, st := h.Recv(selSrc, selTag, at)
			ok = take("Recv", selSrc, selTag, data, nil, false, st, at)
		case 1:
			data, st := h.Irecv(selSrc, selTag, at).Wait(at)
			ok = take("Irecv", selSrc, selTag, data, nil, false, st, at)
		case 2:
			head, body, st := h.RecvGather(selSrc, selTag, at)
			ok = take("RecvGather", selSrc, selTag, head, body, true, st, at)
		case 3:
			head, body, st := h.Irecv(selSrc, selTag, at).WaitGather(at)
			ok = take("Irecv+WaitGather", selSrc, selTag, head, body, true, st, at)
		case 4:
			ok = probeThenReceive(t, h, selSrc, selTag, at, oldest, take)
			probed++
		}
		if !ok {
			return probed, false
		}
	}
	return probed, true
}

// probeThenReceive polls Iprobe until a message matching the selector has
// arrived, checks that a second Iprobe reports the same message (nothing was
// consumed) and that it is the oldest remaining match from its source, then
// receives it with the source and tag the probe reported.
func probeThenReceive(t *testing.T, h *Handle, selSrc, selTag int, at vtime.Stamp,
	oldest func(src, tag int) *plannedMsg,
	take func(string, int, int, []byte, []byte, bool, Status, vtime.Stamp) bool) bool {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	ok, st := h.Iprobe(selSrc, selTag, at)
	for ; !ok; ok, st = h.Iprobe(selSrc, selTag, at) {
		if time.Now().After(deadline) {
			t.Errorf("Iprobe(%d, %d) never found the message the model expects", selSrc, selTag)
			return false
		}
		runtime.Gosched()
	}
	if ok2, st2 := h.Iprobe(selSrc, selTag, at); !ok2 || st2.Source != st.Source || st2.Tag != st.Tag || st2.Count != st.Count {
		t.Errorf("Iprobe(%d, %d) twice: %+v then %v %+v: the first probe consumed or reordered", selSrc, selTag, st, ok2, st2)
		return false
	}
	if m := oldest(st.Source, selTag); m == nil || m.tag != st.Tag || m.size() != st.Count {
		t.Errorf("Iprobe(%d, %d) = %+v, not the oldest remaining match from source %d", selSrc, selTag, st, st.Source)
		return false
	}
	data, rst := h.Recv(st.Source, st.Tag, at)
	return take("Iprobe+Recv", st.Source, st.Tag, data, nil, false, rst, at)
}
