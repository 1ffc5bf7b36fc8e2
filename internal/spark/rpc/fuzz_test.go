package rpc

import (
	"reflect"
	"testing"

	"mpi4spark/internal/bytebuf"
)

// fuzzSeeds returns one well-formed frame per Table II message type, the
// base inputs the fuzzer mutates (the committed corpus under
// testdata/fuzz/FuzzDecode adds truncations and hostile length fields), and
// three frames under the retired stream codes 6 and 7, which Decode must
// reject as unknown types.
func fuzzSeeds() [][]byte {
	msgs := []Message{
		&RpcRequest{ReqID: 7, Endpoint: "Executor", From: "driver", Payload: []byte("launch")},
		&RpcResponse{ReqID: 7, Payload: []byte("ok")},
		&RpcFailure{ReqID: 7, Error: "endpoint missing"},
		&OneWayMessage{Endpoint: "TaskScheduler", From: "exec-0", Payload: []byte("status")},
		&ChunkFetchRequest{FetchID: 9, ChunkBytes: 1 << 20, BlockIDs: []string{"shuffle_1_2_3"}},
		&ChunkFetchRequest{FetchID: 9, BlockIDs: []string{"shuffle_1_0_3", "shuffle_1_1_3", "shuffleMergedRange_1_3_0_2"}},
		&ChunkFetchSuccess{FetchID: 9, Index: 1, Total: 32, Offset: 16, BodyRef: BodyRef{Body: []byte("block-bytes")}},
		&ChunkFetchSuccess{FetchID: 9, Index: 2, Missing: true},
		&ChunkFetchSuccess{FetchID: 9, Total: 1 << 21, Offset: 1 << 20, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 1 << 20, BodyTag: 42}},
		&CollectiveChunk{OpID: 77, Tag: 1 << 20, Src: 2, Total: 16, Offset: 4, BodyRef: BodyRef{Body: []byte("collective")}},
		&CollectiveChunk{OpID: 77, Tag: 3, Src: 1, Total: 1 << 22, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 1 << 20, BodyTag: 7}},
		&PushBlockRequest{PushID: 11, ShuffleID: 1, MapID: 2, ReduceID: 3, Sum: 0xdeadbeef, BodyRef: BodyRef{Body: []byte("pushed-bytes")}},
		&PushBlockRequest{PushID: 11, ShuffleID: 1, MapID: 2, ReduceID: 3, BodyRef: BodyRef{BodyViaMPI: true, BodySize: 1 << 16, BodyTag: 5}},
	}
	out := [][]byte{
		[]byte("\x06\x00\x00\x00\vjar/app.jar"),
		[]byte("\a\x00\x00\x00\vjar/app.jar\x00\x00\x00\x00\x00\x00\x00\x00\tjar-bytes"),
		[]byte("\a\x00\x00\x00\vjar/app.jar\x01\x00\x00\x00\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x00\x03"),
	}
	for _, m := range msgs {
		out = append(out, EncodeToBuf(m).Bytes())
	}
	return out
}

// FuzzDecode feeds arbitrary bytes through the Table II frame decoder.
// Decode must never panic or over-read; when it accepts a frame, the
// decoded message must survive an encode/decode round trip unchanged
// (the property the shuffle path relies on when a retry re-requests a
// block and compares against the original frame).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
		// Bit-flipped variants of every valid frame: the single-bit
		// corruption the fault plane injects on a dirty link. Flipping
		// every bit of the header region and a sample through the body
		// seeds the fuzzer with exactly the frames a corrupted wire
		// produces; Decode must reject or round-trip them, never panic.
		for _, flipped := range bitFlips(seed) {
			f.Add(flipped)
		}
	}
	// Truncated frame and hostile length field, in addition to the
	// committed corpus.
	f.Add([]byte{byte(TypeRpcRequest), 0, 0, 0})
	f.Add([]byte{byte(TypeRpcResponse), 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytebuf.Wrap(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned both a message and an error: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("Decode returned nil message without error")
		}
		re := EncodeToBuf(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v (frame %x)", m.Type(), err, data)
		}
		if re.ReadableBytes() != 0 {
			t.Fatalf("re-decode of %s left %d bytes unread", m.Type(), re.ReadableBytes())
		}
		if !roundTripEqual(m, m2) {
			t.Fatalf("round trip changed %s: %#v != %#v", m.Type(), m, m2)
		}
	})
}

// bitFlips returns copies of the frame with one bit flipped: every bit of
// the first 24 bytes (type tag, ids, length fields) plus one bit per
// 8-byte stride through the rest (payload corruption).
func bitFlips(frame []byte) [][]byte {
	var out [][]byte
	flip := func(bit int) {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		cp[bit/8] ^= 1 << (bit % 8)
		out = append(out, cp)
	}
	head := len(frame)
	if head > 24 {
		head = 24
	}
	for bit := 0; bit < head*8; bit++ {
		flip(bit)
	}
	for off := head + 8; off < len(frame); off += 8 {
		flip(off*8 + int(frame[off])%8)
	}
	return out
}

// roundTripEqual compares two decoded messages, treating nil and empty
// byte slices as the same payload (Decode materializes zero-length fields
// as empty slices).
func roundTripEqual(a, b Message) bool {
	na, nb := normalizeMsg(a), normalizeMsg(b)
	return reflect.DeepEqual(na, nb)
}

func normalizeMsg(m Message) Message {
	switch t := m.(type) {
	case *RpcRequest:
		c := *t
		c.Payload = normBytes(c.Payload)
		return &c
	case *RpcResponse:
		c := *t
		c.Payload = normBytes(c.Payload)
		return &c
	case *OneWayMessage:
		c := *t
		c.Payload = normBytes(c.Payload)
		return &c
	case BodyMessage:
		ref := *t.Ref()
		ref.Body = normBytes(ref.Body)
		return t.WithBody(ref)
	default:
		return m
	}
}

func normBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}
