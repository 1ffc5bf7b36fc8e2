package ucr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/rdma"
)

// FuzzDecodeChunk: decodeChunk never panics on a reply chunk's two parts.
// A header under 20 bytes is an error; the notFound total is ErrNotFound; a
// length the body cannot hold is ErrMalformedChunk; anything else decodes
// to the header's own fields, with the announced bytes aliasing the body.
// The total is passed through as sent, however large: bounding it is
// Reassembly.Fold's job. The committed corpus (testdata/fuzz) holds a short
// header, a notFound total, n over, equal to and under the body, and a
// hostile total.
func FuzzDecodeChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, head, body []byte) {
		total, off, got, err := decodeChunk(rdma.Completion{Data: head, Body: body})
		if len(head) < chunkHeaderLen {
			if err == nil {
				t.Fatalf("a %d-byte header decoded", len(head))
			}
			return
		}
		n := binary.BigEndian.Uint32(head[16:])
		switch {
		case binary.BigEndian.Uint64(head) == notFound:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("notFound total: err = %v", err)
			}
		case int64(n) > int64(len(body)):
			if !errors.Is(err, bytebuf.ErrMalformedChunk) {
				t.Fatalf("header announces %d bytes over a %d-byte body: err = %v", n, len(body), err)
			}
		case err != nil:
			t.Fatalf("well-formed chunk rejected: %v", err)
		case !bytes.Equal(encodeChunkHeader(total, off, uint32(len(got))), head[:chunkHeaderLen]):
			t.Fatalf("decoded (%d, %d, %d bytes) does not re-encode to the header", total, off, len(got))
		case len(got) > 0 && &got[0] != &body[0]:
			t.Fatal("the chunk body was copied")
		}
	})
}
