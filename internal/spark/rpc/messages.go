// Package rpc implements Spark's RPC and block-transfer messaging over the
// netty framework: the message types of the paper's Table II, the framed
// wire encoding, endpoint dispatch with request/response correlation, and
// the client/server environment (RpcEnv) every Spark process owns.
package rpc

import (
	"fmt"
	"sync/atomic"

	"mpi4spark/internal/bytebuf"
)

// MsgType identifies a wire message, mirroring Spark's message tagging.
type MsgType byte

// The message types of Table II, plus the two this repo adds. The codes are
// wire format: 6 and 7 belonged to Table II's stream pair, which nothing here
// sends, and 9 and 10 to a second fetch pair that the ChunkFetch pair
// replaced. All four stay retired, so every code after 5 is pinned.
const (
	// TypeRpcRequest is a request to perform a generic RPC.
	TypeRpcRequest MsgType = iota + 1
	// TypeRpcResponse is a response to an RpcRequest for a successful RPC.
	TypeRpcResponse
	// TypeOneWayMessage is an RPC that does not expect a reply.
	TypeOneWayMessage
	// TypeChunkFetchRequest is a request to fetch blocks as a stream of
	// chunks.
	TypeChunkFetchRequest
	// TypeChunkFetchSuccess is one successfully fetched chunk of a
	// ChunkFetchRequest's reply.
	TypeChunkFetchSuccess
	// TypeRpcFailure reports a failed RPC (Spark's RpcFailure).
	TypeRpcFailure MsgType = 8
	// TypeCollectiveChunk is one bounded-size piece of a collective
	// operation (tree broadcast, binomial reduce, ring allreduce) flowing
	// rank-to-rank through the collective layer.
	TypeCollectiveChunk MsgType = 11
	// TypePushBlock pushes one committed map-output block to an external
	// shuffle service (the Magnet-style push-merge data path).
	TypePushBlock MsgType = 12
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeRpcRequest:
		return "RpcRequest"
	case TypeRpcResponse:
		return "RpcResponse"
	case TypeOneWayMessage:
		return "OneWayMessage"
	case TypeChunkFetchRequest:
		return "ChunkFetchRequest"
	case TypeChunkFetchSuccess:
		return "ChunkFetchSuccess"
	case TypeRpcFailure:
		return "RpcFailure"
	case TypeCollectiveChunk:
		return "CollectiveChunk"
	case TypePushBlock:
		return "PushBlock"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// Message is any wire message.
type Message interface {
	// Type returns the message's wire tag.
	Type() MsgType
	// Encode appends the message (tag included) to buf in its contiguous
	// wire form.
	Encode(buf *bytebuf.Buf)
	// WireSize estimates the encoded size in bytes: the size EncodeToBuf
	// asks the buffer pool for.
	WireSize() int
}

// RpcRequest asks the named endpoint at the remote environment to handle
// Payload and reply.
type RpcRequest struct {
	ReqID    int64
	Endpoint string
	From     string
	Payload  []byte
}

// Type implements Message.
func (m *RpcRequest) Type() MsgType { return TypeRpcRequest }

// WireSize implements Message.
func (m *RpcRequest) WireSize() int {
	return 1 + 8 + 8 + len(m.Endpoint) + len(m.From) + len(m.Payload)
}

// Encode implements Message.
func (m *RpcRequest) Encode(buf *bytebuf.Buf) { buf.WriteBytes(m.encodeHead(buf)) }

func (m *RpcRequest) encodeHead(buf *bytebuf.Buf) []byte {
	buf.WriteByte(byte(TypeRpcRequest))
	buf.WriteInt64(m.ReqID)
	buf.WriteString(m.Endpoint)
	buf.WriteString(m.From)
	buf.WriteUint32(uint32(len(m.Payload)))
	return m.Payload
}

// RpcResponse answers an RpcRequest.
type RpcResponse struct {
	ReqID   int64
	Payload []byte
}

// Type implements Message.
func (m *RpcResponse) Type() MsgType { return TypeRpcResponse }

// WireSize implements Message.
func (m *RpcResponse) WireSize() int { return 1 + 8 + len(m.Payload) }

// Encode implements Message.
func (m *RpcResponse) Encode(buf *bytebuf.Buf) { buf.WriteBytes(m.encodeHead(buf)) }

func (m *RpcResponse) encodeHead(buf *bytebuf.Buf) []byte {
	buf.WriteByte(byte(TypeRpcResponse))
	buf.WriteInt64(m.ReqID)
	buf.WriteUint32(uint32(len(m.Payload)))
	return m.Payload
}

// RpcFailure reports an RPC error back to the caller.
type RpcFailure struct {
	ReqID int64
	Error string
}

// Type implements Message.
func (m *RpcFailure) Type() MsgType { return TypeRpcFailure }

// WireSize implements Message.
func (m *RpcFailure) WireSize() int { return 1 + 8 + len(m.Error) }

// Encode implements Message.
func (m *RpcFailure) Encode(buf *bytebuf.Buf) {
	buf.WriteByte(byte(TypeRpcFailure))
	buf.WriteInt64(m.ReqID)
	buf.WriteString(m.Error)
}

// OneWayMessage is a fire-and-forget RPC.
type OneWayMessage struct {
	Endpoint string
	From     string
	Payload  []byte
}

// Type implements Message.
func (m *OneWayMessage) Type() MsgType { return TypeOneWayMessage }

// WireSize implements Message.
func (m *OneWayMessage) WireSize() int { return 1 + 8 + len(m.Endpoint) + len(m.From) + len(m.Payload) }

// Encode implements Message.
func (m *OneWayMessage) Encode(buf *bytebuf.Buf) { buf.WriteBytes(m.encodeHead(buf)) }

func (m *OneWayMessage) encodeHead(buf *bytebuf.Buf) []byte {
	buf.WriteByte(byte(TypeOneWayMessage))
	buf.WriteString(m.Endpoint)
	buf.WriteString(m.From)
	buf.WriteUint32(uint32(len(m.Payload)))
	return m.Payload
}

// BodyRef is the body of a MessageWithHeader: a small header (type, ids,
// body size) followed by a large body. The MPI4Spark-Optimized design ships
// exactly this body over MPI while the header stays on the socket (§IV-E,
// Fig. 6): BodyViaMPI marks that encoding, BodySize announces the body's
// length and BodyTag carries the MPI tag the receiver must use for the
// matching MPI_Recv. The three messages that embed it are the BodyMessage set.
type BodyRef struct {
	Body       []byte
	BodyViaMPI bool
	BodySize   int
	BodyTag    int
}

// Ref returns the message's body descriptor.
func (b *BodyRef) Ref() *BodyRef { return b }

// bodyWireSize is the descriptor's share of Message.WireSize.
func (b *BodyRef) bodyWireSize() int {
	if b.BodyViaMPI {
		return 1 + 8 + 8
	}
	return 1 + 8 + len(b.Body)
}

// encodeBodyHead writes the body descriptor: a flag, then either (size, MPI
// tag) for a body shipped over MPI or the length of the body that follows,
// which it returns.
func (b *BodyRef) encodeBodyHead(buf *bytebuf.Buf) []byte {
	if b.BodyViaMPI {
		buf.WriteByte(1)
		buf.WriteUint64(uint64(b.BodySize))
		buf.WriteInt64(int64(b.BodyTag))
		return nil
	}
	buf.WriteByte(0)
	buf.WriteUint64(uint64(len(b.Body)))
	return b.Body
}

// decodeBody reads what encodeBodyHead wrote, taking the body from the attached
// slice of a two-part frame when there is one (see readBody).
func (b *BodyRef) decodeBody(buf *bytebuf.Buf, attached []byte) error {
	flag, err := buf.ReadByte()
	if err != nil {
		return err
	}
	n, err := buf.ReadUint64()
	if err != nil {
		return err
	}
	b.BodySize = int(n)
	if flag != 1 {
		b.Body, err = readBody(buf, attached, int(n))
		return err
	}
	if attached != nil {
		return fmt.Errorf("rpc: body announced over MPI, frame attaches %d bytes", len(attached))
	}
	b.BodyViaMPI = true
	t, err := buf.ReadInt64()
	b.BodyTag = int(t)
	return err
}

// BodyMessage is a MessageWithHeader: the three messages whose body a
// transport may move apart from the header. A transport that diverts bodies
// rewrites the descriptor in place through Ref, and needs to know no
// message's fields: a message written to a channel belongs to that write's
// traversal, and its writer does not read it again, as a decoded message
// belongs to the traversal that delivers it.
type BodyMessage interface {
	Message
	Ref() *BodyRef
}

// ChunkFetchRequest asks the peer's block resolver for a batch of blocks in
// one round-trip (Table II's request, carrying Spark's
// OpenBlocks/FetchShuffleBlocks coalescing: a single block is a batch of
// one). The reply streams back as ChunkFetchSuccess messages of at most
// ChunkBytes each (zero: one per block), so serve cost, wire time and
// reassembly pipeline instead of serializing on one monolithic frame per
// block. FetchID correlates the reply's chunks.
type ChunkFetchRequest struct {
	FetchID    int64
	ChunkBytes uint32
	BlockIDs   []string
}

// Type implements Message.
func (m *ChunkFetchRequest) Type() MsgType { return TypeChunkFetchRequest }

// WireSize implements Message.
func (m *ChunkFetchRequest) WireSize() int {
	n := 1 + 8 + 4 + 4
	for _, id := range m.BlockIDs {
		n += 4 + len(id)
	}
	return n
}

// Encode implements Message.
func (m *ChunkFetchRequest) Encode(buf *bytebuf.Buf) {
	buf.WriteByte(byte(TypeChunkFetchRequest))
	buf.WriteInt64(m.FetchID)
	buf.WriteUint32(m.ChunkBytes)
	buf.WriteUint32(uint32(len(m.BlockIDs)))
	for _, id := range m.BlockIDs {
		buf.WriteString(id)
	}
}

// ChunkFetchSuccess carries one bounded-size piece of one block of a
// ChunkFetchRequest's reply. Index addresses the block within the request's
// BlockIDs; Offset and Total let the receiver reassemble. Missing marks a
// block the server could not resolve (failing only that block, not its batch
// siblings). On the Optimized design each chunk body is one eager or
// rendezvous MPI message.
type ChunkFetchSuccess struct {
	FetchID int64
	Index   uint32
	Missing bool
	Total   uint64
	Offset  uint64
	BodyRef
}

// Type implements Message.
func (m *ChunkFetchSuccess) Type() MsgType { return TypeChunkFetchSuccess }

// WireSize implements Message.
func (m *ChunkFetchSuccess) WireSize() int { return 1 + 8 + 4 + 1 + 8 + 8 + m.bodyWireSize() }

// Encode implements Message.
func (m *ChunkFetchSuccess) Encode(buf *bytebuf.Buf) { buf.WriteBytes(m.encodeHead(buf)) }

func (m *ChunkFetchSuccess) encodeHead(buf *bytebuf.Buf) []byte {
	buf.WriteByte(byte(TypeChunkFetchSuccess))
	buf.WriteInt64(m.FetchID)
	buf.WriteUint32(m.Index)
	if m.Missing {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	buf.WriteUint64(m.Total)
	buf.WriteUint64(m.Offset)
	return m.encodeBodyHead(buf)
}

// CollectiveChunk carries one bounded-size piece of one rank's collective
// transfer. OpID identifies the operation, Tag the transfer edge within it
// (chunk index, tree level, or ring step — the algorithms assign tags so
// that at most one in-flight transfer per (OpID, Tag) targets a given
// rank), and Src the sending rank. Offset and Total let the receiver
// reassemble multi-chunk transfers.
type CollectiveChunk struct {
	OpID   int64
	Tag    uint32
	Src    uint32
	Total  uint64
	Offset uint64
	BodyRef
}

// Type implements Message.
func (m *CollectiveChunk) Type() MsgType { return TypeCollectiveChunk }

// WireSize implements Message.
func (m *CollectiveChunk) WireSize() int { return 1 + 8 + 4 + 4 + 8 + 8 + m.bodyWireSize() }

// Encode implements Message.
func (m *CollectiveChunk) Encode(buf *bytebuf.Buf) { buf.WriteBytes(m.encodeHead(buf)) }

func (m *CollectiveChunk) encodeHead(buf *bytebuf.Buf) []byte {
	buf.WriteByte(byte(TypeCollectiveChunk))
	buf.WriteInt64(m.OpID)
	buf.WriteUint32(m.Tag)
	buf.WriteUint32(m.Src)
	buf.WriteUint64(m.Total)
	buf.WriteUint64(m.Offset)
	return m.encodeBodyHead(buf)
}

// PushBlockRequest pushes one committed shuffle block from a map task to
// its node-local external shuffle service. PushID correlates the service's
// RpcResponse/RpcFailure ack. Sum is the block's write-time CRC32C; the
// service verifies the body against it at ingest, so a push corrupted in
// flight is rejected before it can poison a merged run.
type PushBlockRequest struct {
	PushID    int64
	ShuffleID int
	MapID     int
	ReduceID  int
	Sum       uint32
	BodyRef
}

// Type implements Message.
func (m *PushBlockRequest) Type() MsgType { return TypePushBlock }

// WireSize implements Message.
func (m *PushBlockRequest) WireSize() int { return 1 + 8 + 4 + 4 + 4 + 4 + m.bodyWireSize() }

// Encode implements Message.
func (m *PushBlockRequest) Encode(buf *bytebuf.Buf) { buf.WriteBytes(m.encodeHead(buf)) }

func (m *PushBlockRequest) encodeHead(buf *bytebuf.Buf) []byte {
	buf.WriteByte(byte(TypePushBlock))
	buf.WriteInt64(m.PushID)
	buf.WriteUint32(uint32(m.ShuffleID))
	buf.WriteUint32(uint32(m.MapID))
	buf.WriteUint32(uint32(m.ReduceID))
	buf.WriteUint32(m.Sum)
	return m.encodeBodyHead(buf)
}

// headBody is implemented by every message that crosses the wire as a
// two-part frame, the BodyMessage set plus the three rpc messages with a
// payload: encodeHead appends everything Encode would up to and including
// the body-length field and returns the body that follows it on the wire
// (nil when the body travels over MPI), so head ‖ body is the contiguous
// form byte for byte.
type headBody interface {
	encodeHead(buf *bytebuf.Buf) (body []byte)
}

// decodeFrame parses one message from a frame in one or two parts: head
// holds the header fields and body, when non-nil, is the payload the
// header's length field announces, attached by reference; a nil body means
// the head is the whole frame (tag first). The decoded message's body
// aliases that frame — nothing is copied — and stays valid for as long as
// its bytes do. Request strings are resolved through in (nil: allocated
// afresh).
func decodeFrame(head *bytebuf.Buf, body []byte, in *interner) (Message, error) {
	m, err := decode(head, body, in)
	if err == nil && body != nil {
		if _, ok := m.(headBody); !ok {
			return nil, fmt.Errorf("rpc: %s frame carries a %d-byte body", m.Type(), len(body))
		}
	}
	return m, err
}

// readBody returns the n-byte body of the message being decoded: the
// attached slice of a two-part frame (which must be exactly the n bytes the
// header announced, with nothing left in the head), else the next n bytes
// of buf, aliased.
func readBody(buf *bytebuf.Buf, attached []byte, n int) ([]byte, error) {
	if attached == nil {
		return buf.ReadSlice(n)
	}
	if buf.ReadableBytes() != 0 || len(attached) != n {
		return nil, fmt.Errorf("rpc: header announces a %d-byte body, frame attaches %d after %d stray head bytes",
			n, len(attached), buf.ReadableBytes())
	}
	return attached, nil
}

// interner gives the strings a channel's requests repeat without
// allocating them again: an endpoint name is the registered endpoint's own
// string, and the sender is the one the channel's previous message named
// (every message of a channel comes from the same env). Names it does not
// know are allocated as they come.
type interner struct {
	env  *Env
	from atomic.Pointer[string]
}

// endpoint reads a length-prefixed endpoint name.
func (in *interner) endpoint(buf *bytebuf.Buf) (string, error) {
	b, err := readStringBytes(buf)
	if err != nil || in == nil {
		return string(b), err
	}
	in.env.mu.Lock()
	ep := in.env.endpoints[string(b)]
	in.env.mu.Unlock()
	if ep != nil {
		return ep.name, nil
	}
	return string(b), nil
}

// sender reads a length-prefixed sender name.
func (in *interner) sender(buf *bytebuf.Buf) (string, error) {
	b, err := readStringBytes(buf)
	if err != nil || in == nil {
		return string(b), err
	}
	if last := in.from.Load(); last != nil && *last == string(b) {
		return *last, nil
	}
	from := string(b)
	in.from.Store(&from)
	return from, nil
}

// readStringBytes reads a length-prefixed string as a window of buf.
func readStringBytes(buf *bytebuf.Buf) ([]byte, error) {
	n, err := buf.ReadUint32()
	if err != nil {
		return nil, err
	}
	return buf.ReadSlice(int(n))
}

func decode(buf *bytebuf.Buf, attached []byte, in *interner) (Message, error) {
	tb, err := buf.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("rpc: empty frame: %w", err)
	}
	switch MsgType(tb) {
	case TypeRpcRequest:
		m := &RpcRequest{}
		if m.ReqID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		if m.Endpoint, err = in.endpoint(buf); err != nil {
			return nil, err
		}
		if m.From, err = in.sender(buf); err != nil {
			return nil, err
		}
		n, err := buf.ReadUint32()
		if err != nil {
			return nil, err
		}
		if m.Payload, err = readBody(buf, attached, int(n)); err != nil {
			return nil, err
		}
		return m, nil
	case TypeRpcResponse:
		m := &RpcResponse{}
		if m.ReqID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		n, err := buf.ReadUint32()
		if err != nil {
			return nil, err
		}
		if m.Payload, err = readBody(buf, attached, int(n)); err != nil {
			return nil, err
		}
		return m, nil
	case TypeRpcFailure:
		m := &RpcFailure{}
		if m.ReqID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		if m.Error, err = buf.ReadString(); err != nil {
			return nil, err
		}
		return m, nil
	case TypeOneWayMessage:
		m := &OneWayMessage{}
		if m.Endpoint, err = in.endpoint(buf); err != nil {
			return nil, err
		}
		if m.From, err = in.sender(buf); err != nil {
			return nil, err
		}
		n, err := buf.ReadUint32()
		if err != nil {
			return nil, err
		}
		if m.Payload, err = readBody(buf, attached, int(n)); err != nil {
			return nil, err
		}
		return m, nil
	case TypeChunkFetchRequest:
		m := &ChunkFetchRequest{}
		if m.FetchID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		if m.ChunkBytes, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		n, err := buf.ReadUint32()
		if err != nil {
			return nil, err
		}
		if int(n) > buf.ReadableBytes() {
			return nil, fmt.Errorf("rpc: batch of %d block ids in %d readable bytes", n, buf.ReadableBytes())
		}
		// One string for the rest of the frame, of which every id is a
		// sub-slice: a request costs one allocation for its ids, not one each.
		rest, base := string(buf.Readable()), buf.ReaderIndex()
		m.BlockIDs = make([]string, 0, n)
		for i := uint32(0); i < n; i++ {
			l, err := buf.ReadUint32()
			if err == nil {
				err = buf.Skip(int(l))
			}
			if err != nil {
				return nil, err
			}
			end := buf.ReaderIndex() - base
			m.BlockIDs = append(m.BlockIDs, rest[end-int(l):end])
		}
		return m, nil
	case TypeChunkFetchSuccess:
		m := &ChunkFetchSuccess{}
		if m.FetchID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		if m.Index, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		miss, err := buf.ReadByte()
		if err != nil {
			return nil, err
		}
		m.Missing = miss == 1
		if m.Total, err = buf.ReadUint64(); err != nil {
			return nil, err
		}
		if m.Offset, err = buf.ReadUint64(); err != nil {
			return nil, err
		}
		if err := m.decodeBody(buf, attached); err != nil {
			return nil, err
		}
		return m, nil
	case TypeCollectiveChunk:
		m := &CollectiveChunk{}
		if m.OpID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		if m.Tag, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		if m.Src, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		if m.Total, err = buf.ReadUint64(); err != nil {
			return nil, err
		}
		if m.Offset, err = buf.ReadUint64(); err != nil {
			return nil, err
		}
		if err := m.decodeBody(buf, attached); err != nil {
			return nil, err
		}
		return m, nil
	case TypePushBlock:
		m := &PushBlockRequest{}
		if m.PushID, err = buf.ReadInt64(); err != nil {
			return nil, err
		}
		var v uint32
		if v, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		m.ShuffleID = int(v)
		if v, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		m.MapID = int(v)
		if v, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		m.ReduceID = int(v)
		if m.Sum, err = buf.ReadUint32(); err != nil {
			return nil, err
		}
		if err := m.decodeBody(buf, attached); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("rpc: unknown message type %d", tb)
	}
}

// EncodeToBuf encodes m in its contiguous wire form into a buffer carved
// from the default pool. The caller owns the buffer.
func EncodeToBuf(m Message) *bytebuf.Buf {
	buf := bytebuf.Get(m.WireSize())
	m.Encode(buf)
	return buf
}

// encodeFrame encodes m for the wire in two parts: its header in a buffer
// carved from the default pool, which the caller owns, and its body by
// reference (nil for a header-only message or an empty body).
func encodeFrame(m Message) (head *bytebuf.Buf, body []byte) {
	hb, ok := m.(headBody)
	if !ok {
		return EncodeToBuf(m), nil
	}
	head = bytebuf.Get(0) // smallest class: headers are tens of bytes, and the buffer grows
	if body = hb.encodeHead(head); len(body) == 0 {
		body = nil
	}
	return head, body
}
