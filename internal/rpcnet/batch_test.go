package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfstricks/internal/sunrpc"
)

// payloadFor derives call i's argument bytes, so a reply can be checked
// without keeping every payload in memory.
func payloadFor(i int, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// TestGoThousandConcurrentLargePayloads: 1000 calls in flight at once on
// one TCP client, from several goroutines, with payloads of 0–60 KiB.
// Batched writes and buffered record reads must keep every record
// intact and every reply routed to its own call.
func TestGoThousandConcurrentLargePayloads(t *testing.T) {
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls, issuers = 1000, 8
	sizes := make([]int, calls)
	rng := rand.New(rand.NewSource(1))
	for i := range sizes {
		sizes[i] = rng.Intn(60<<10 + 1)
	}
	pending := make([]*Pending, calls)
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < calls; i += issuers {
				pending[i] = c.Go(3, payloadFor(i, sizes[i]))
			}
		}(g)
	}
	wg.Wait()
	for i, p := range pending {
		body, err := p.Wait(30 * time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(body) != sizes[i]+1 || body[0] != 3 || !bytes.Equal(body[1:], payloadFor(i, sizes[i])) {
			t.Fatalf("call %d: reply of %d bytes does not echo its %d-byte payload", i, len(body), sizes[i])
		}
	}
}

// oneByteConn returns at most one byte per Read, so every record a
// read loop frames is split at every byte boundary.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

// servePipe serves one in-memory connection on s, reading it one byte
// at a time, and returns the client end. The server side ends when the
// client end is closed.
func servePipe(t *testing.T, s *Server) net.Conn {
	t.Helper()
	srv, cli := net.Pipe()
	s.wg.Add(1)
	go s.serveConn(oneByteConn{srv})
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestRecordsSplitAtEveryByte drives both TCP read loops with one byte
// per Read: the server frames pipelined multi-fragment calls, and a
// client frames pipelined replies.
func TestRecordsSplitAtEveryByte(t *testing.T) {
	s := startServer(t)

	t.Run("server, multi-fragment calls", func(t *testing.T) {
		conn := servePipe(t, s)
		const n = 20
		go func() {
			for i := 0; i < n; i++ {
				call := sunrpc.Call{XID: uint32(i), Prog: 100003, Vers: 3, Proc: 3,
					Cred: sunrpc.AuthNoneCred(), Verf: sunrpc.AuthNoneCred(), Body: payloadFor(i, 3*i)}
				msg := call.AppendTo(nil)
				// Fragments of 7 bytes, the last one flagged.
				var stream []byte
				for len(msg) > 0 {
					k := min(7, len(msg))
					mark := uint32(k)
					if k == len(msg) {
						mark |= 0x80000000
					}
					stream = binary.BigEndian.AppendUint32(stream, mark)
					stream = append(stream, msg[:k]...)
					msg = msg[k:]
				}
				if _, err := conn.Write(stream); err != nil {
					return
				}
			}
		}()
		br := bufio.NewReader(oneByteConn{conn})
		var buf []byte
		for i := 0; i < n; i++ {
			rec, err := sunrpc.ReadRecordInto(br, buf)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			buf = rec
			reply, err := sunrpc.UnmarshalReply(rec)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			want := append([]byte{3}, payloadFor(int(reply.XID), 3*int(reply.XID))...)
			if !bytes.Equal(reply.Body, want) {
				t.Fatalf("reply to xid %d: body %v, want %v", reply.XID, reply.Body, want)
			}
		}
	})

	t.Run("client, pipelined replies", func(t *testing.T) {
		c := newClient("tcp", oneByteConn{servePipe(t, s)}, 100003, 3, nil)
		defer c.Close()
		pending := make([]*Pending, 50)
		for i := range pending {
			pending[i] = c.Go(3, payloadFor(i, 5*i))
		}
		for i, p := range pending {
			body, err := p.Wait(10 * time.Second)
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if !bytes.Equal(body, append([]byte{3}, payloadFor(i, 5*i)...)) {
				t.Fatalf("call %d: reply %v", i, body)
			}
		}
	})
}

// failWriteConn is a connection whose reads work but whose writes fail:
// the server can take requests off it but never deliver a reply.
type failWriteConn struct{ net.Conn }

func (failWriteConn) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestReplyWriteErrorClosesConn: a reply that cannot be written closes
// the connection, ending its read loop, instead of the server going on
// dispatching requests whose replies can never arrive.
func TestReplyWriteErrorClosesConn(t *testing.T) {
	s := startServer(t)
	srv, cli := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	s.wg.Add(1)
	go func() {
		s.serveConn(failWriteConn{srv})
		close(done)
	}()
	c := newClient("tcp", cli, 100003, 3, nil)
	defer c.Close()
	if _, err := c.Go(1, []byte("lost")).Wait(10 * time.Second); err == nil {
		t.Fatal("call succeeded over a connection that cannot write replies")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("read loop still running after a reply write failed")
	}
}

// TestClientClosesMidPipeline: a client that disconnects with 64 calls
// in flight leaves nothing behind — every queued reply is recycled,
// Server.Close returns promptly and the server's goroutines exit.
func TestClientClosesMidPipeline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const inFlight = 64
	release := make(chan struct{})
	var entered atomic.Int32
	allIn := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, body []byte, reply []byte) ([]byte, uint32) {
		if entered.Add(1) == inFlight {
			close(allIn)
		}
		<-release
		return append(reply, body...), sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial("tcp", s.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inFlight; i++ {
		c.Go(1, payloadFor(i, 512))
	}
	select {
	case <-allIn:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d calls reached the handler", entered.Load(), inFlight)
	}
	c.Close()
	close(release)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return after the client left mid-pipeline")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want <= baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// maxAllocsPerPipelinedCall pins a pipelined round trip at 5 allocations
// per call: the client's Pending and decoded reply (header and body),
// the server's decoded call and its request goroutine. The commit before
// TCP batching measured 8. AllocsPerRun truncates its per-run average to
// an integer, so a stray pool refill cannot fail the pin, while one
// escaping allocation per batch on either side can.
const maxAllocsPerPipelinedCall = 5.0

// maxAllocsPerSerialCall pins a serial Call one below a Go round trip:
// Call runs Go's path on a Pending held on the caller's stack, so the
// heap Pending is the allocation it must not bring back.
const maxAllocsPerSerialCall = 4.0

// TestPipelinedRoundTripAllocs pins the allocations of TCP round trips,
// client and server together: a pipelined Go round (8 calls in flight)
// and a serial Call. The batching state lives in the per-connection
// structs; a net.Buffers header built on the stack would escape and add
// an allocation per batch.
func TestPipelinedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	s := startServer(t)
	c, err := Dial("tcp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := make([]byte, 100)
	pin := func(t *testing.T, calls int, max float64, round func()) {
		for i := 0; i < 50; i++ {
			round() // warm the buffer, channel and timer pools
		}
		allocs := testing.AllocsPerRun(200, round) / float64(calls)
		t.Logf("%.2f allocs per call", allocs)
		if allocs > max {
			t.Fatalf("%.2f allocs per call, want <= %.2f", allocs, max)
		}
	}
	t.Run("go-window8", func(t *testing.T) {
		var pending [8]*Pending
		pin(t, len(pending), maxAllocsPerPipelinedCall, func() {
			for i := range pending {
				pending[i] = c.Go(1, args)
			}
			for _, p := range pending {
				if _, err := p.Wait(0); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	t.Run("call-serial", func(t *testing.T) {
		pin(t, 1, maxAllocsPerSerialCall, func() {
			if _, err := c.Call(1, args); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestPutBufDropsOversized: a buffer grown far past the peak wire size
// (a hostile near-MaxRecord record) is not pinned in the arena.
func TestPutBufDropsOversized(t *testing.T) {
	big := make([]byte, 0, sunrpc.MaxRecord)
	putBuf(&big)
	for i := 0; i < 4; i++ {
		if b := getBuf(); cap(*b) > maxPooledBuf {
			t.Fatalf("arena returned a %d-byte buffer, ceiling %d", cap(*b), maxPooledBuf)
		}
	}
}
