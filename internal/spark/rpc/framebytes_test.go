package rpc

import (
	"encoding/hex"
	"testing"

	"mpi4spark/internal/netty"
	"mpi4spark/internal/vtime"
)

// partsCapture is a transport that keeps the two parts of the last frame
// written to it, as hex.
type partsCapture struct{ head, body string }

func (c *partsCapture) WriteMsg(msg any, vt vtime.Stamp) vtime.Stamp {
	head, body := netty.Parts(msg)
	c.head, c.body = hex.EncodeToString(head.Readable()), hex.EncodeToString(body)
	return vt
}
func (c *partsCapture) Close() error { return nil }

// frameGolden holds, for one message of every type, the (head, body) the
// transport is handed once the message has crossed an environment's outbound
// pipeline: the length field, the header fields, and the split between the
// two parts, which is what the fabric charges for. Captured from the encoder
// that built a pooled head and a second, framed one; wireGolden stops at
// Encode. The ChunkFetchRequest names eight blocks: its head is the one here
// that outgrows a frame's inline bytes.
var frameGolden = []struct {
	msg        Message
	head, body string
}{
	{&RpcRequest{ReqID: 42, Endpoint: "Master", From: "worker-1", Payload: []byte("register")},
		"0000002b01000000000000002a000000064d617374657200000008776f726b65722d3100000008", "7265676973746572"},
	{&RpcRequest{ReqID: 43, Endpoint: "Master", From: "worker-1"},
		"0000002301000000000000002b000000064d617374657200000008776f726b65722d3100000000", ""},
	{&RpcResponse{ReqID: 42, Payload: []byte("ok")},
		"0000000f02000000000000002a00000002", "6f6b"},
	{&OneWayMessage{Endpoint: "Executor", From: "driver", Payload: []byte("launch")},
		"0000002103000000084578656375746f720000000664726976657200000006", "6c61756e6368"},
	{&ChunkFetchRequest{FetchID: 9, ChunkBytes: 1 << 20, BlockIDs: []string{
		"shuffle_0_0_3", "shuffle_0_1_3", "shuffle_0_2_3", "shuffle_0_3_3",
		"shuffle_0_4_3", "shuffle_0_5_3", "shuffle_0_6_3", "shuffle_0_7_3"}},
		"0000009904000000000000000900100000000000080000000d73687566666c655f305f305f330000000d73687566666c655f305f315f330000000d73687566666c655f305f325f330000000d73687566666c655f305f335f330000000d73687566666c655f305f345f330000000d73687566666c655f305f355f330000000d73687566666c655f305f365f330000000d73687566666c655f305f375f33", ""},
	{&ChunkFetchSuccess{FetchID: 5, Index: 3, Total: 20, Offset: 8, BodyRef: BodyRef{Body: []byte("batchchunk")}},
		"0000003105000000000000000500000003000000000000000014000000000000000800000000000000000a", "62617463686368756e6b"},
	{&ChunkFetchSuccess{FetchID: 5, Index: 4, Missing: true},
		"00000027050000000000000005000000040100000000000000000000000000000000000000000000000000", ""},
	{&ChunkFetchSuccess{FetchID: 5, Index: 3, Total: 20, Offset: 8, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 10, BodyTag: 77}},
		"0000002f05000000000000000500000003000000000000000014000000000000000801000000000000000a000000000000004d", ""},
	{&RpcFailure{ReqID: 42, Error: "no such endpoint"},
		"0000001d08000000000000002a000000106e6f207375636820656e64706f696e74", ""},
	{&CollectiveChunk{OpID: 77, Tag: 1 << 20, Src: 2, Total: 16, Offset: 4, BodyRef: BodyRef{Body: []byte("collective")}},
		"000000340b000000000000004d00100000000000020000000000000010000000000000000400000000000000000a", "636f6c6c656374697665"},
	{&PushBlockRequest{PushID: 11, ShuffleID: 1, MapID: 2, ReduceID: 3, Sum: 0xdeadbeef, BodyRef: BodyRef{Body: []byte("pushed-bytes")}},
		"0000002e0c000000000000000b000000010000000200000003deadbeef00000000000000000c", "7075736865642d6279746573"},
}

// TestFrameBytesThroughPipeline writes each message through the pipeline an
// environment builds for a channel and compares what reaches the transport
// with frameGolden, byte for byte.
func TestFrameBytesThroughPipeline(t *testing.T) {
	ch := netty.NewChannel()
	wire := &partsCapture{}
	ch.SetTransport(wire)
	(&Env{}).initPipeline(ch, false)
	seen := map[MsgType]bool{}
	for _, g := range frameGolden {
		seen[g.msg.Type()] = true
		*wire = partsCapture{}
		ch.Write(g.msg, 0)
		if wire.head != g.head || wire.body != g.body {
			t.Errorf("%s %+v\n got head %s body %q\nwant head %s body %q",
				g.msg.Type(), g.msg, wire.head, wire.body, g.head, g.body)
		}
	}
	for _, typ := range []MsgType{TypeRpcRequest, TypeRpcResponse, TypeOneWayMessage, TypeChunkFetchRequest,
		TypeChunkFetchSuccess, TypeRpcFailure, TypeCollectiveChunk, TypePushBlock} {
		if !seen[typ] {
			t.Errorf("no golden frame for %s", typ)
		}
	}
}
