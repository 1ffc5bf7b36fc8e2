package streaming

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecodeRegistration holds the block registry's decoder to what
// registerBlock writes: a payload is accepted only if it carries the four
// fields and a non-negative event count, and then it reads back as those
// fields, so no registration can take events off the ingested total.
func FuzzDecodeRegistration(f *testing.F) {
	f.Add(encodeRegistration(blockKey{recv: 1, batch: 7, block: 3}, 250, 2000))
	f.Add(encodeRegistration(blockKey{}, 0, 0))
	f.Add(encodeRegistration(blockKey{recv: 2}, math.MaxInt64, -8))
	f.Add(encodeRegistration(blockKey{recv: 1, batch: 7, block: 3}, -1, -8)) // a negative count
	f.Add(encodeRegistration(blockKey{recv: 1}, 5, 40)[:32])                 // no byte count
	f.Add(encodeRegistration(blockKey{recv: 1}, 5, 40)[:31])                 // short
	f.Fuzz(func(t *testing.T, payload []byte) {
		k, events, err := decodeRegistration(payload)
		short := len(payload) < 32
		negative := !short && int64(binary.BigEndian.Uint64(payload[24:32])) < 0
		if (err != nil) != (short || negative) {
			t.Fatalf("decodeRegistration(%x) error %v; want one: %v", payload, err, short || negative)
		}
		if err != nil {
			return
		}
		if got := encodeRegistration(k, events, 0)[:32]; !bytes.Equal(got, payload[:32]) {
			t.Fatalf("decodeRegistration(%x) = %+v, %d: re-encodes as %x", payload, k, events, got)
		}
	})
}
