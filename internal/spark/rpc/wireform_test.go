package rpc

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"mpi4spark/internal/bytebuf"
)

// wireGolden pairs each body-carrying message with the bytes Encode
// produced for it before the header/body split (the contiguous Table II
// form, captured from the copying encoder). ChunkFetchSuccess's are the
// ones captured for the chunk of the batched pair it took over, under its
// own type code.
var wireGolden = []struct {
	msg  Message
	wire string
}{
	{&RpcRequest{ReqID: 42, Endpoint: "Master", From: "worker-1", Payload: []byte("register")},
		"01000000000000002a000000064d617374657200000008776f726b65722d31000000087265676973746572"},
	{&RpcResponse{ReqID: 42, Payload: []byte("ok")},
		"02000000000000002a000000026f6b"},
	{&OneWayMessage{Endpoint: "Executor", From: "driver", Payload: []byte("launch")},
		"03000000084578656375746f7200000006647269766572000000066c61756e6368"},
	{&ChunkFetchSuccess{FetchID: 5, Index: 3, Total: 20, Offset: 8, BodyRef: BodyRef{Body: []byte("batchchunk")}},
		"05000000000000000500000003000000000000000014000000000000000800000000000000000a62617463686368756e6b"},
	{&PushBlockRequest{PushID: 11, ShuffleID: 1, MapID: 2, ReduceID: 3, Sum: 0xdeadbeef, BodyRef: BodyRef{Body: []byte("pushed-bytes")}},
		"0c000000000000000b000000010000000200000003deadbeef00000000000000000c7075736865642d6279746573"},
	{&CollectiveChunk{OpID: 77, Tag: 1 << 20, Src: 2, Total: 16, Offset: 4, BodyRef: BodyRef{Body: []byte("collective")}},
		"0b000000000000004d00100000000000020000000000000010000000000000000400000000000000000a636f6c6c656374697665"},
}

// TestWireFormEquivalence pins the two-part encoding to the contiguous one
// it replaced: head ‖ body of every body-carrying message is byte for byte
// what Encode wrote before, and the contiguous and two-part forms decode to
// equal messages — the two-part one without copying the body.
func TestWireFormEquivalence(t *testing.T) {
	for _, g := range wireGolden {
		name := g.msg.Type().String()
		want, err := hex.DecodeString(g.wire)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeToBuf(g.msg).Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s: contiguous form\n got %x\nwant %x", name, got, want)
		}
		head, body := encodeFrame(g.msg)
		if body == nil {
			t.Fatalf("%s: encodeFrame attached no body", name)
		}
		if got := append(head.Bytes(), body...); !bytes.Equal(got, want) {
			t.Fatalf("%s: head ‖ body\n got %x\nwant %x", name, got, want)
		}

		fromContig, err := Decode(bytebuf.Wrap(want))
		if err != nil {
			t.Fatalf("%s: decode contiguous: %v", name, err)
		}
		fromParts, err := DecodeFrame(head, body)
		if err != nil {
			t.Fatalf("%s: decode two-part: %v", name, err)
		}
		if !reflect.DeepEqual(fromContig, fromParts) {
			t.Fatalf("%s: forms decode differently:\n contiguous %+v\n two-part   %+v", name, fromContig, fromParts)
		}
		if got := messageBody(fromParts); len(got) == 0 || &got[0] != &body[0] {
			t.Fatalf("%s: two-part decode copied the body", name)
		}
		if got := messageBody(fromContig); !bytes.Equal(got, body) {
			t.Fatalf("%s: decoded body %q, want %q", name, got, body)
		}
	}
}

// TestDecodeFrameRejectsMisattachedBody covers the ways a two-part frame
// can disagree with its header: a body on a header-only message, a body
// whose length is not the one announced, stray head bytes before it, and a
// body attached to a header that announces it over MPI.
func TestDecodeFrameRejectsMisattachedBody(t *testing.T) {
	headOf := func(m Message) *bytebuf.Buf {
		head, _ := encodeFrame(m)
		return head
	}
	chunk := &ChunkFetchSuccess{FetchID: 1, Total: 4, BodyRef: BodyRef{Body: []byte("four")}}
	cases := map[string]struct {
		head *bytebuf.Buf
		body []byte
	}{
		"header-only message": {headOf(&ChunkFetchRequest{FetchID: 1, BlockIDs: []string{"b"}}), []byte("x")},
		"short body":          {headOf(chunk), []byte("fou")},
		"long body":           {headOf(chunk), []byte("fours")},
		"stray head bytes":    {EncodeToBuf(chunk), []byte("four")},
		"body announced over MPI": {
			headOf(chunk.WithBody(BodyRef{BodyViaMPI: true, BodySize: 4, BodyTag: 9})), []byte("four")},
	}
	for name, c := range cases {
		if m, err := DecodeFrame(c.head, c.body); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
}

// messageBody returns the body (or payload) of a body-carrying message.
func messageBody(m Message) []byte {
	switch m := m.(type) {
	case *RpcRequest:
		return m.Payload
	case *RpcResponse:
		return m.Payload
	case *OneWayMessage:
		return m.Payload
	case BodyMessage:
		return m.Ref().Body
	}
	return nil
}
