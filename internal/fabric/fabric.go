package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpi4spark/internal/vtime"
)

// ErrClosed is returned by listener and connection operations after Close.
var ErrClosed = errors.New("fabric: closed")

// Addr names a listening endpoint: a node plus a port string.
type Addr struct {
	Node string
	Port string
}

// String renders the address as node:port.
func (a Addr) String() string { return a.Node + ":" + a.Port }

// Message is one transfer unit on a connection: a payload plus the virtual
// time at which the last byte is available at the receiver. The payload is
// Data followed by Body; Body is nil unless the sender used SendGather.
// Both alias the sender's slices.
type Message struct {
	Data []byte
	Body []byte
	VT   vtime.Stamp
}

// Stats aggregates per-protocol traffic counters for a fabric.
type Stats struct {
	Messages [numProtocols]int64
	Bytes    [numProtocols]int64
}

// MessagesFor returns the message count observed for protocol p.
func (s Stats) MessagesFor(p Protocol) int64 { return s.Messages[p] }

// BytesFor returns the byte count observed for protocol p.
func (s Stats) BytesFor(p Protocol) int64 { return s.Bytes[p] }

// TransferHook observes every Transfer on the fabric before its costs are
// charged. Failure-injection tests install one to fail a node at a precise
// virtual moment mid-shuffle (the hook may call FailNode: Transfer holds no
// fabric lock while invoking it).
type TransferHook func(from, to *Node, proto Protocol, n int, at vtime.Stamp)

// FaultPlane generalizes TransferHook from pure observation to
// deterministic fault injection. Every Transfer on the fabric — all four
// transports funnel through it — consults the installed plane:
// TransferDelay's extra duration is added to the delivery stamp (drop
// modeled as retransmit, jitter, flap-window waits), and LinkDown gates
// connection-oriented paths: Dial refuses and Conn sends fail while a link
// is administratively down, handing recovery to the transports' existing
// connection-loss machinery. Implementations must be safe for concurrent
// use and deterministic in their arguments (the fault plane is part of the
// simulation, not a source of nondeterminism).
type FaultPlane interface {
	TransferDelay(from, to string, n int, at vtime.Stamp) time.Duration
	LinkDown(from, to string, at vtime.Stamp) bool
}

// Fabric is a simulated interconnect: a set of nodes joined by a modeled
// network. Create one with New, add nodes, then Listen/Dial between them.
type Fabric struct {
	model *Model

	mu        sync.Mutex
	nodes     map[string]*Node
	listeners map[Addr]*Listener
	conns     map[*Conn]struct{}

	hookMu sync.RWMutex
	hook   TransferHook
	plane  FaultPlane

	msgs  [numProtocols]atomic.Int64
	bytes [numProtocols]atomic.Int64
}

// New creates an empty fabric governed by the given cost model.
func New(model *Model) *Fabric {
	if model == nil {
		model = NewZeroModel()
	}
	return &Fabric{
		model:     model,
		nodes:     make(map[string]*Node),
		listeners: make(map[Addr]*Listener),
		conns:     make(map[*Conn]struct{}),
	}
}

// Model returns the fabric's cost model.
func (f *Fabric) Model() *Model { return f.model }

// AddNode creates a node with the given name. Adding a duplicate name
// panics: node topology is fixed at cluster construction time and a
// duplicate is a programming error.
func (f *Fabric) AddNode(name string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[name]; ok {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	n := &Node{
		name:   name,
		fabric: f,
		nicTx:  vtime.NewResource(),
		nicRx:  vtime.NewResource(),
	}
	f.nodes[name] = n
	return n
}

// Node returns the named node, or nil if it does not exist.
func (f *Fabric) Node(name string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[name]
}

// Stats returns a snapshot of the traffic counters.
func (f *Fabric) Stats() Stats {
	var s Stats
	for p := 0; p < int(numProtocols); p++ {
		s.Messages[p] = f.msgs[p].Load()
		s.Bytes[p] = f.bytes[p].Load()
	}
	return s
}

// ResetStats zeroes the traffic counters.
func (f *Fabric) ResetStats() {
	for p := 0; p < int(numProtocols); p++ {
		f.msgs[p].Store(0)
		f.bytes[p].Store(0)
	}
}

func (f *Fabric) account(p Protocol, n int) {
	f.msgs[p].Add(1)
	f.bytes[p].Add(int64(n))
}

// Node is one simulated host: a shared NIC (tx and rx directions are
// separate full-duplex resources), its cores, and a name. Processes are a
// concept of higher layers; they share their node's NIC and cores, which is
// how intra-node process counts translate into network contention and
// spinning threads into compute starvation.
type Node struct {
	name   string
	fabric *Fabric
	nicTx  *vtime.Resource
	nicRx  *vtime.Resource
	failed bool // guarded by fabric.mu

	// txBytes counts what this node's NIC sent (loopback excluded). It
	// lets tests distinguish an O(B) tree/ring distribution from an O(E·B)
	// root fan-out, which the fabric-wide per-protocol totals cannot; dials
	// counts the connections this node opened, which tells who dialed whom.
	txBytes atomic.Int64
	dials   atomic.Int64

	// cores is the node's physical core count (zero: CPU not modelled);
	// spinning counts the threads that busy-poll on them.
	cores    atomic.Int64
	spinning atomic.Int64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Fabric returns the owning fabric.
func (n *Node) Fabric() *Fabric { return n.fabric }

// TxBytes returns the bytes this node has sent over its NIC (loopback
// transfers are not counted).
func (n *Node) TxBytes() int64 { return n.txBytes.Load() }

// Dials returns the connections this node has opened (Dial calls that
// succeeded, under any protocol). Establishing one moves no counted bytes.
func (n *Node) Dials() int64 { return n.dials.Load() }

// ResetTraffic zeroes the node's traffic counters.
func (n *Node) ResetTraffic() {
	n.txBytes.Store(0)
	n.dials.Store(0)
}

// SetCores gives the node c physical cores, shared by the threads of every
// process it hosts. A node whose cores were never set has no CPU model.
func (n *Node) SetCores(c int) { n.cores.Store(int64(c)) }

// Spin records a thread that busy-polls on the node and returns the func,
// to be called once, that stops it. Such a thread never blocks: it takes a
// core whenever the scheduler offers one, whether or not it finds work.
func (n *Node) Spin() (stop func()) {
	n.spinning.Add(1)
	return func() { n.spinning.Add(-1) }
}

// ComputeStretch is the factor by which the node's spinning threads
// lengthen task compute, (cores + spinning) / cores. The node's tasks fill
// its cores (the paper gives Spark every core; a simulated slot stands for
// cores/slots of them), so a fair-share scheduler hands each of the cores +
// spinning runnable threads cores / (cores + spinning) of a core. It is 1 on
// a node with no spinning thread or no cores set.
func (n *Node) ComputeStretch() float64 {
	c := n.cores.Load()
	if c <= 0 {
		return 1
	}
	return float64(c+n.spinning.Load()) / float64(c)
}

// maxBacklog is how many dialed connections a listener holds un-accepted;
// a dial past it is refused, as a kernel refuses past listen(2)'s backlog.
const maxBacklog = 128

// Listener accepts connections dialed to its address.
type Listener struct {
	addr    Addr
	node    *Node
	backlog vtime.Mailbox[*Conn]
}

// Listen opens a listener on the node at the given port. It returns an
// error if the port is already bound.
func (n *Node) Listen(port string) (*Listener, error) {
	addr := Addr{Node: n.name, Port: port}
	f := n.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.listeners[addr]; ok {
		return nil, fmt.Errorf("fabric: address %s already bound", addr)
	}
	l := &Listener{addr: addr, node: n}
	f.listeners[addr] = l
	return l, nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() Addr { return l.addr }

// Accept blocks until a connection arrives or the listener is closed.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := l.backlog.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close unbinds the listener. Pending un-accepted connections are closed.
// It is idempotent.
func (l *Listener) Close() error {
	f := l.node.fabric
	f.mu.Lock()
	if f.listeners[l.addr] == l {
		delete(f.listeners, l.addr)
	}
	f.mu.Unlock()
	l.backlog.Close()
	for c, ok := l.backlog.TryRecv(); ok; c, ok = l.backlog.TryRecv() {
		c.Close()
	}
	return nil
}

// Dial connects from node n to the listener at addr using protocol proto.
// The handshake is charged one protocol round trip; the returned stamp is
// the virtual time at which the connection is usable on the dialing side.
func (n *Node) Dial(addr Addr, proto Protocol, at vtime.Stamp) (*Conn, vtime.Stamp, error) {
	f := n.fabric
	f.mu.Lock()
	l, ok := f.listeners[addr]
	remote := f.nodes[addr.Node]
	f.mu.Unlock()
	if !ok {
		return nil, at, fmt.Errorf("fabric: connection refused: %s", addr)
	}
	if remote == nil {
		return nil, at, fmt.Errorf("fabric: no such node %q", addr.Node)
	}

	f.mu.Lock()
	if n.failed || remote.failed {
		f.mu.Unlock()
		return nil, at, fmt.Errorf("fabric: node failed dialing %s", addr)
	}
	f.mu.Unlock()
	if plane := f.FaultPlane(); plane != nil && n != remote &&
		plane.LinkDown(n.name, remote.name, at) {
		return nil, at, fmt.Errorf("fabric: link down dialing %s", addr)
	}

	a2b, b2a := new(vtime.Mailbox[Message]), new(vtime.Mailbox[Message])
	dialSide := &Conn{local: n, remote: remote, proto: proto, out: a2b, in: b2a}
	acceptSide := &Conn{local: remote, remote: n, proto: proto, out: b2a, in: a2b}
	dialSide.peer, acceptSide.peer = acceptSide, dialSide
	// The backlog check, the push and the registration are one step under
	// the fabric lock: dials cannot overfill the backlog between them, a
	// Close that drains the backlog finds the connection registered, and a
	// refused dial leaves nothing behind.
	f.mu.Lock()
	if l.backlog.Len() >= maxBacklog {
		f.mu.Unlock()
		return nil, at, fmt.Errorf("fabric: backlog full dialing %s", addr)
	}
	if !l.backlog.Push(acceptSide) {
		f.mu.Unlock()
		return nil, at, fmt.Errorf("fabric: connection refused: %s", addr)
	}
	f.conns[dialSide] = struct{}{}
	f.mu.Unlock()
	n.dials.Add(1)

	// Connection establishment costs one round trip of the protocol's
	// latency (SYN/SYN-ACK or queue-pair exchange).
	c := f.model.cost(proto)
	rtt := 2 * (c.Latency + c.SendOverhead + c.RecvOverhead)
	if n == remote {
		rtt = 2 * f.model.loopback(0)
	}
	ready := at.Add(rtt)
	return dialSide, ready, nil
}

// Conn is a message-oriented, reliable, ordered connection between two
// nodes. It is full duplex; Send and Recv may be used concurrently.
type Conn struct {
	local  *Node
	remote *Node
	peer   *Conn
	proto  Protocol
	out    *vtime.Mailbox[Message]
	in     *vtime.Mailbox[Message]
	closed atomic.Bool
}

// LocalNode returns the node on this side of the connection.
func (c *Conn) LocalNode() *Node { return c.local }

// RemoteNode returns the node on the far side of the connection.
func (c *Conn) RemoteNode() *Node { return c.remote }

// Send transmits data with the sender's clock at `at`. It returns the
// virtual time at which the sender's CPU is free again (after send overhead
// and any copy cost); the message is delivered to the peer carrying the
// virtual arrival time of its last byte. The payload is not copied: callers
// must not mutate it after Send.
func (c *Conn) Send(data []byte, at vtime.Stamp) (cpuFree vtime.Stamp, err error) {
	return c.send(data, nil, at)
}

// SendGather is Send for a payload in two parts, a header and a body that
// follows it (writev): one message, one transfer of len(head)+len(body)
// bytes, neither part copied. The receiver gets them back as
// Message.Data and Message.Body.
func (c *Conn) SendGather(head, body []byte, at vtime.Stamp) (cpuFree vtime.Stamp, err error) {
	return c.send(head, body, at)
}

func (c *Conn) send(data, body []byte, at vtime.Stamp) (vtime.Stamp, error) {
	if c.closed.Load() {
		return at, ErrClosed
	}
	f := c.local.fabric
	if plane := f.FaultPlane(); plane != nil && c.local != c.remote &&
		plane.LinkDown(c.local.name, c.remote.name, at) {
		// The link is flapped or partitioned: the connection dies the way a
		// TCP session dies when the path disappears, and the transports'
		// connection-loss recovery (redial after backoff, past the window)
		// takes over.
		c.Close()
		return at, ErrClosed
	}
	cpuFree, deliver := f.Transfer(c.local, c.remote, c.proto, len(data)+len(body), at)
	c.out.Push(Message{Data: data, Body: body, VT: deliver})
	return cpuFree, nil
}

// Transfer charges the cost model for moving n bytes from one node to
// another starting at virtual time `at`, including NIC occupancy on both
// ends. It returns the time the sender's CPU is free and the time the last
// byte (plus receive overhead) is available at the receiver. Layers with
// their own endpoints (MPI, RDMA) use this directly instead of a Conn.
func (f *Fabric) Transfer(from, to *Node, proto Protocol, n int, at vtime.Stamp) (cpuFree, deliver vtime.Stamp) {
	f.hookMu.RLock()
	hook := f.hook
	plane := f.plane
	f.hookMu.RUnlock()
	if hook != nil {
		hook(from, to, proto, n, at)
	}
	f.account(proto, n)
	if from == to {
		d := f.model.loopback(n)
		cpuFree = at.Add(d)
		return cpuFree, cpuFree
	}
	var fault time.Duration
	if plane != nil {
		fault = plane.TransferDelay(from.name, to.name, n, at)
	}
	from.txBytes.Add(int64(n))
	cost := f.model.cost(proto)
	cpuFree = at.Add(cost.SendOverhead + cost.copyCost(n))
	serial := cost.serial(n)
	_, txEnd := from.nicTx.Occupy(cpuFree, serial)
	arrive := txEnd.Add(cost.Latency)
	// Cut-through receive: if the receiving NIC is idle the transfer
	// pipelines and the last byte lands at `arrive`; under incast the
	// occupancy queues and delivery slips.
	_, rxEnd := to.nicRx.Occupy(arrive.Add(-serial), serial)
	deliver = vtime.Max(arrive, rxEnd)
	deliver = deliver.Add(cost.RecvOverhead + cost.copyCost(n) + fault)
	return cpuFree, deliver
}

// Recv blocks until a message arrives and returns its payload and virtual
// arrival time. A closed connection first hands out what was delivered
// before it closed, then reports ErrClosed.
func (c *Conn) Recv() (Message, error) {
	m, ok := c.in.Recv()
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// TryRecv returns a buffered message without blocking; ok reports whether
// one was available. This is the primitive behind non-blocking selector
// polls.
func (c *Conn) TryRecv() (Message, bool) {
	return c.in.TryRecv()
}

// Pending reports whether a message is buffered for Recv.
func (c *Conn) Pending() bool {
	return c.in.Len() > 0
}

// SetReadNotify installs fn as a readiness callback: it is invoked after
// every delivery to this connection and when the connection closes. It is
// invoked once immediately upon installation so no prior delivery is
// missed. Event-loop selectors use this as their epoll-style wakeup.
func (c *Conn) SetReadNotify(fn func()) {
	c.in.SetNotify(fn)
}

// Close tears down both directions of the connection. It is idempotent.
func (c *Conn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.in.Close()
	c.out.Close()
	if p := c.peer; p != nil {
		p.closed.Store(true)
	}
	f := c.local.fabric
	f.mu.Lock()
	delete(f.conns, c)
	if c.peer != nil {
		delete(f.conns, c.peer)
	}
	f.mu.Unlock()
	return nil
}

// SetTransferHook installs fn as the fabric's transfer observer (nil
// removes it). The hook runs synchronously inside every Transfer — keep it
// cheap. It is the timing primitive for mid-shuffle failure injection:
// tests trigger FailNode from inside the hook when a transfer matching
// their predicate appears.
func (f *Fabric) SetTransferHook(fn TransferHook) {
	f.hookMu.Lock()
	f.hook = fn
	f.hookMu.Unlock()
}

// SetFaultPlane installs a fault-injection plane on the fabric (nil
// removes it). Verdicts run synchronously inside every Transfer, Dial and
// Conn send — keep them cheap.
func (f *Fabric) SetFaultPlane(p FaultPlane) {
	f.hookMu.Lock()
	f.plane = p
	f.hookMu.Unlock()
}

// FaultPlane returns the installed fault plane, or nil.
func (f *Fabric) FaultPlane() FaultPlane {
	f.hookMu.RLock()
	defer f.hookMu.RUnlock()
	return f.plane
}

// BodyFaults is the payload-level half of a fault plane, which the endpoint
// layers (rpc serve paths, UCR) consult per served block: in-flight
// corruption and duplicate delivery. A plane that only models delays does
// not implement it.
type BodyFaults interface {
	CorruptBody(from, to, key string, body []byte, at vtime.Stamp) ([]byte, bool)
	DupDeliver(from, to, key string, at vtime.Stamp) bool
}

// BodyFaults returns the installed fault plane when it injects body faults,
// else nil.
func (f *Fabric) BodyFaults() BodyFaults {
	bf, _ := f.FaultPlane().(BodyFaults)
	return bf
}

// FailNode injects a node failure: every connection touching the node is
// torn down, its listeners stop accepting, and future dials to or from it
// are refused. Used by failure-injection tests.
func (f *Fabric) FailNode(name string) {
	f.mu.Lock()
	n := f.nodes[name]
	if n == nil {
		f.mu.Unlock()
		return
	}
	n.failed = true
	var victims []*Conn
	for c := range f.conns {
		if c.local == n || c.remote == n {
			victims = append(victims, c)
		}
	}
	var lst []*Listener
	for _, l := range f.listeners {
		if l.node == n {
			lst = append(lst, l)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	for _, l := range lst {
		l.Close()
	}
}

// Failed reports whether the named node has been failed.
func (f *Fabric) Failed(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodes[name]
	return n != nil && n.failed
}

// Closed reports whether the connection has been closed by either side.
func (c *Conn) Closed() bool { return c.closed.Load() }

// TransferTime answers "how long would n bytes take under protocol p
// between distinct idle nodes" for the fabric's model. Used by unit tests
// and by analytical sanity checks in the harness.
func (f *Fabric) TransferTime(p Protocol, n int) time.Duration {
	c := f.model.cost(p)
	return c.SendOverhead + c.copyCost(n) + c.serial(n) + c.Latency + c.RecvOverhead + c.copyCost(n)
}
