package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// keepFirstFetched keeps the body of the first decoded ChunkFetchSuccess
// that reaches it and passes every message on.
type keepFirstFetched struct {
	mu   sync.Mutex
	body []byte
}

func (k *keepFirstFetched) ChannelRead(ctx *netty.Context, msg any) {
	if m, ok := msg.(*rpc.ChunkFetchSuccess); ok {
		k.mu.Lock()
		if k.body == nil {
			k.body = m.Body
		}
		k.mu.Unlock()
	}
	ctx.FireChannelRead(msg)
}

// dialedChannels reports each channel an env dials.
type dialedChannels chan *netty.Channel

func (d dialedChannels) InstallClient(ch *netty.Channel, _ *rpc.Env) {
	select {
	case d <- ch:
	default:
	}
}

func (dialedChannels) InstallServer(*netty.Channel, *rpc.Env) {}

// ucrServers resolves executor ids to UCR servers.
type ucrServers map[string]*ucr.Server

func (s ucrServers) UCRServer(id string) (*ucr.Server, bool) { srv, ok := s[id]; return srv, ok }

// TestKeptBytesSurviveLaterMessages pins the lifetimes a receiver relies on,
// on all four transports: an endpoint's kept Call.Payload, a kept
// BatchBlockResult.Data and a kept decoded ChunkFetchSuccess.Body read the
// same after 100 later messages of the same sizes on the same channel. What a
// message leaves behind for its receiver is bytes; the frame they arrived in,
// the context that carried it and the message the writer wrote are not, and
// may be reused. UCR has no endpoints and no ChunkFetch messages: there it is
// the block.
func TestKeptBytesSurviveLaterMessages(t *testing.T) {
	const later, payloadSize, blockSize, chunkBytes = 100, 64, 2048, 1024
	fill := func(i, n int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, n) }
	blocks := make(map[string][]byte)
	for i := 0; i <= later; i++ {
		blocks[fmt.Sprint("b", i)] = fill(i, blockSize)
	}
	resolve := func(id string) ([]byte, bool) { b, ok := blocks[id]; return b, ok }

	type fetchFunc func(id string, at vtime.Stamp) ([]byte, vtime.Stamp)
	check := func(t *testing.T, what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("kept %s changed after %d later messages", what, later)
		}
	}

	t.Run("ucr", func(t *testing.T) {
		f := fabric.New(fabric.NewIBHDRModel())
		n0, n1 := f.AddNode("n0"), f.AddNode("n1")
		cfg := ucr.DefaultConfig()
		cfg.ChunkSize = chunkBytes
		srv := ucr.NewServer(rdma.OpenDevice(n1), resolve, cfg)
		defer srv.Close()
		bts := shuffle.NewUCRBTS(rdma.OpenDevice(n0), ucrServers{"server": srv})
		defer bts.Close()
		var fetch fetchFunc = func(id string, at vtime.Stamp) ([]byte, vtime.Stamp) {
			rs, vt, err := bts.Fetch(shuffle.Location{ExecID: "server"}, []string{id}, chunkBytes, at)
			if err != nil || rs[0].Err != nil {
				t.Fatalf("fetch %s: %v, %v", id, err, rs[0].Err)
			}
			return rs[0].Data, vt
		}
		data, at := fetch("b0", 0)
		for i := 1; i <= later; i++ {
			_, at = fetch(fmt.Sprint("b", i), at)
		}
		check(t, "BatchBlockResult.Data", data, fill(0, blockSize))
	})

	for _, transport := range []string{"nio", "mpi-basic", "mpi-opt"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			var client, server *rpc.Env
			var clientChannel func() *netty.Channel
			if transport == "nio" {
				f := fabric.New(fabric.NewIBHDRModel())
				dialed := make(dialedChannels, 1)
				var err error
				if client, err = rpc.NewEnv("client", f.AddNode("n0"), "rpc", rpc.EnvConfig{Hooks: dialed}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(client.Shutdown)
				if server, err = rpc.NewEnv("server", f.AddNode("n1"), "rpc", rpc.EnvConfig{}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(server.Shutdown)
				clientChannel = func() *netty.Channel { return <-dialed }
			} else {
				design := DesignBasic
				if transport == "mpi-opt" {
					design = DesignOptimized
				}
				envs, states, _ := twoProcStates(t, design)
				client, server = envs[0], envs[1]
				clientChannel = func() *netty.Channel { return onlyChannel(t, states[0]) }
			}

			var mu sync.Mutex
			var payload []byte
			if err := server.RegisterEndpoint("keep", func(c *rpc.Call) {
				mu.Lock()
				if payload == nil {
					payload = c.Payload
				}
				mu.Unlock()
				c.Reply(nil, c.VT)
			}); err != nil {
				t.Fatal(err)
			}
			server.RegisterChunkResolver(resolve)
			ask := func(i int, at vtime.Stamp) vtime.Stamp {
				_, vt, err := client.Ask(server.Addr(), "keep", fill(i, payloadSize), at)
				if err != nil {
					t.Fatalf("ask %d: %v", i, err)
				}
				return vt
			}
			var fetch fetchFunc = func(id string, at vtime.Stamp) ([]byte, vtime.Stamp) {
				rs, vt, err := client.FetchBlockBatch(server.Addr(), []string{id}, chunkBytes, at)
				if err != nil || rs[0].Err != nil {
					t.Fatalf("fetch %s: %v, %v", id, err, rs[0].Err)
				}
				return rs[0].Data, vt
			}

			// The first Ask dials the channel; the keeper goes in ahead of the
			// dispatcher before the first fetch.
			at := ask(0, 0)
			fetched := &keepFirstFetched{}
			clientChannel().Pipeline().AddBefore("dispatcher", "keepFetched", fetched)
			data, at := fetch("b0", at)
			for i := 1; i <= later; i++ {
				at = ask(i, at)
				_, at = fetch(fmt.Sprint("b", i), at)
			}
			mu.Lock()
			check(t, "Call.Payload", payload, fill(0, payloadSize))
			mu.Unlock()
			check(t, "BatchBlockResult.Data", data, fill(0, blockSize))
			fetched.mu.Lock()
			check(t, "ChunkFetchSuccess.Body", fetched.body, fill(0, chunkBytes))
			fetched.mu.Unlock()
		})
	}
}
