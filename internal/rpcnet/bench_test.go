package rpcnet

import (
	"fmt"
	"testing"
)

var sinkBody []byte

// BenchmarkRoundTrip measures loopback round trips against the echo
// server: each transport, one call at a time through Go + Wait
// (serial) and through Call (serial-call, which must cost no more than
// serial), and with eight calls in flight (window8, a client's RPC slot
// table), for a GETATTR-sized and a 32 KiB payload. Client and server
// share the process, so ns/op, B/op and allocs/op cover both ends.
func BenchmarkRoundTrip(b *testing.B) {
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3, echoHandler, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, network := range []string{"tcp", "udp"} {
		for _, mode := range []string{"serial", "serial-call", "window8"} {
			for _, size := range []int{100, 32 << 10} {
				b.Run(fmt.Sprintf("%s/%s/%dB", network, mode, size), func(b *testing.B) {
					benchRoundTrip(b, s.Addr(), network, mode, size)
				})
			}
		}
	}
}

func benchRoundTrip(b *testing.B, addr, network, mode string, size int) {
	c, err := Dial(network, addr, 100003, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	args := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	if mode == "serial-call" {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := c.Call(1, args)
			if err != nil {
				b.Fatal(err)
			}
			sinkBody = body
		}
		return
	}
	window := 1
	if mode == "window8" {
		window = 8
	}
	ring := make([]*Pending, window)
	wait := func(p *Pending) {
		body, err := p.Wait(0)
		if err != nil {
			b.Fatal(err)
		}
		sinkBody = body
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := ring[i%window]; p != nil {
			wait(p)
		}
		ring[i%window] = c.Go(1, args)
	}
	for _, p := range ring {
		if p != nil {
			wait(p)
		}
	}
}
