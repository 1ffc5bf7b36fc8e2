package ucr

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/rdma"
)

func newServerClient(t *testing.T, blocks map[string][]byte, cfg Config) (*Client, *Server) {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	sdev := rdma.OpenDevice(f.AddNode("server"))
	cdev := rdma.OpenDevice(f.AddNode("client"))
	var mu sync.Mutex
	srv := NewServer(sdev, func(id string) ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		b, ok := blocks[id]
		return b, ok
	}, cfg)
	t.Cleanup(srv.Close)
	client, _, err := srv.Connect(cdev, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client, srv
}

func TestFetchSmallBlock(t *testing.T) {
	blocks := map[string][]byte{"b1": []byte("hello ucr")}
	c, _ := newServerClient(t, blocks, DefaultConfig())
	data, vt, err := c.FetchBlock("b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello ucr" {
		t.Fatalf("data = %q", data)
	}
	if vt <= 0 {
		t.Fatalf("vt = %v", vt)
	}
}

func TestFetchMultiChunkBlock(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	cfg := DefaultConfig()
	cfg.ChunkSize = 64 << 10
	c, _ := newServerClient(t, map[string][]byte{"big": big}, cfg)
	data, _, err := c.FetchBlock("big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, big) {
		t.Fatal("multi-chunk reassembly corrupted data")
	}
}

func TestFetchEmptyBlock(t *testing.T) {
	c, _ := newServerClient(t, map[string][]byte{"empty": {}}, DefaultConfig())
	data, _, err := c.FetchBlock("empty", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("len = %d", len(data))
	}
}

func TestFetchMissingBlock(t *testing.T) {
	c, _ := newServerClient(t, map[string][]byte{}, DefaultConfig())
	_, _, err := c.FetchBlock("nope", 0)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSequentialFetches(t *testing.T) {
	blocks := map[string][]byte{}
	for i := 0; i < 5; i++ {
		blocks[string(rune('a'+i))] = bytes.Repeat([]byte{byte(i)}, 1000*(i+1))
	}
	c, _ := newServerClient(t, blocks, DefaultConfig())
	var last int64
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		data, vt, err := c.FetchBlock(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, blocks[id]) {
			t.Fatalf("block %s corrupted", id)
		}
		if int64(vt) <= last {
			t.Fatalf("server clock did not advance across fetches: %v then %v", last, vt)
		}
		last = int64(vt)
	}
}

func TestPerChunkOverheadShapesCost(t *testing.T) {
	big := make([]byte, 2<<20)
	mk := func(overhead time.Duration) int64 {
		cfg := Config{ChunkSize: 128 << 10, PerChunkOverhead: overhead}
		c, _ := newServerClient(t, map[string][]byte{"b": big}, cfg)
		_, vt, err := c.FetchBlock("b", 0)
		if err != nil {
			t.Fatal(err)
		}
		return int64(vt)
	}
	cheap := mk(0)
	costly := mk(100 * time.Microsecond)
	chunks := int64((2 << 20) / (128 << 10))
	wantDelta := chunks * int64(100*time.Microsecond)
	delta := costly - cheap
	if delta < wantDelta*8/10 || delta > wantDelta*12/10 {
		t.Fatalf("overhead delta = %d, want about %d", delta, wantDelta)
	}
}

func TestUCRSlowerThanRawVerbsButFasterThanTCP(t *testing.T) {
	// The calibration invariant behind the paper's baseline ordering.
	f := fabric.New(fabric.NewIBHDRModel())
	n := 4 << 20
	tcp := f.TransferTime(fabric.TCP, n)
	raw := f.TransferTime(fabric.RDMA, n)

	sdev := rdma.OpenDevice(f.AddNode("server"))
	cdev := rdma.OpenDevice(f.AddNode("client"))
	big := make([]byte, n)
	srv := NewServer(sdev, func(string) ([]byte, bool) { return big, true }, DefaultConfig())
	defer srv.Close()
	c, _, err := srv.Connect(cdev, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, vt, err := c.FetchBlock("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	ucrTime := vt.AsDuration()
	if !(ucrTime > raw && ucrTime < tcp) {
		t.Fatalf("ordering broken: raw=%v ucr=%v tcp=%v", raw, ucrTime, tcp)
	}
}

func TestConnectAfterClose(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	sdev := rdma.OpenDevice(f.AddNode("s"))
	cdev := rdma.OpenDevice(f.AddNode("c"))
	srv := NewServer(sdev, func(string) ([]byte, bool) { return nil, false }, DefaultConfig())
	srv.Close()
	if _, _, err := srv.Connect(cdev, 0); err == nil {
		t.Fatal("Connect after Close succeeded")
	}
}

// TestFetchOwnership: a block is adopted by reference on both fetch paths,
// whether it crosses as one chunk or as several (consecutive windows of the
// served block); it never shares memory with the pool and has no capacity
// beyond its size, so it is the caller's to keep on both paths for as long
// as it is referenced.
func TestFetchOwnership(t *testing.T) {
	small := bytes.Repeat([]byte{1}, 4<<10)
	big := bytes.Repeat([]byte{2}, 300<<10) // three 128 KiB chunks
	c, _ := newServerClient(t, map[string][]byte{"small": small, "big": big}, DefaultConfig())
	churn := func() {
		for i := 0; i < 8; i++ {
			b := bytebuf.Get(len(big))
			b.WriteBytes(bytes.Repeat([]byte{0xEE}, len(big)))
			b.Release()
		}
	}

	data, _, err := c.FetchBlock("small", 0)
	if err != nil || &data[0] != &small[0] {
		t.Fatalf("single-chunk FetchBlock copied the block (err %v)", err)
	}
	kept, _, err := c.FetchBlock("big", 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := c.FetchBlocks([]string{"small", "big", "missing"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &rs[0].Data[0] != &small[0] {
		t.Fatal("single-chunk FetchBlocks result was not adopted")
	}
	if !errors.Is(rs[2].Err, ErrNotFound) {
		t.Fatalf("missing block: %v", rs[2].Err)
	}
	churn()
	for name, got := range map[string][]byte{"FetchBlock": kept, "FetchBlocks": rs[1].Data} {
		if !bytes.Equal(got, big) {
			t.Fatalf("multi-chunk %s result shares memory with the pool", name)
		}
		if &got[0] != &big[0] {
			t.Fatalf("multi-chunk %s result was not adopted", name)
		}
		if cap(got) != len(big) {
			t.Fatalf("multi-chunk %s result has capacity %d for a %d-byte block", name, cap(got), len(big))
		}
	}
}

// TestFetchRejectsShrunkTotal: a server whose second chunk announces a
// smaller total than its first. The block's bytes so far plus that chunk
// reach the smaller total, so a client that checked only the chunk against
// its own announcement would complete the block with the wrong bytes; the
// reassembly fails it instead.
func TestFetchRejectsShrunkTotal(t *testing.T) {
	f := fabric.New(fabric.NewIBHDRModel())
	clientQP, serverQP, _ := rdma.ConnectQP(rdma.OpenDevice(f.AddNode("client")), rdma.OpenDevice(f.AddNode("server")), 0)
	t.Cleanup(clientQP.Close)
	block := bytes.Repeat([]byte{7}, 300)
	go func() {
		for {
			comp, err := serverQP.CQ().Wait()
			if err != nil {
				return
			}
			serverQP.PostSendGather(encodeChunkHeader(300, 0, 100), block[:100], comp.VT)
			serverQP.PostSendGather(encodeChunkHeader(150, 100, 50), block[100:150], comp.VT)
		}
	}()
	c := &Client{qp: clientQP}
	data, _, err := c.FetchBlock("b", 0)
	if !errors.Is(err, bytebuf.ErrMalformedChunk) || data != nil {
		t.Fatalf("FetchBlock = %d bytes, err %v; want a malformed-chunk error", len(data), err)
	}
}
