package rpcnet

import (
	"fmt"
	"testing"
)

var sinkBody []byte

// BenchmarkRoundTrip measures loopback round trips against the echo
// server: each transport, one call at a time (serial) and with eight
// calls in flight (window8, a client's RPC slot table), for a
// GETATTR-sized and a 32 KiB payload. Client and server share the
// process, so ns/op, B/op and allocs/op cover both ends.
func BenchmarkRoundTrip(b *testing.B) {
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3, echoHandler, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, network := range []string{"tcp", "udp"} {
		for _, window := range []int{1, 8} {
			for _, size := range []int{100, 32 << 10} {
				mode := "serial"
				if window > 1 {
					mode = fmt.Sprintf("window%d", window)
				}
				b.Run(fmt.Sprintf("%s/%s/%dB", network, mode, size), func(b *testing.B) {
					benchRoundTrip(b, s.Addr(), network, window, size)
				})
			}
		}
	}
}

func benchRoundTrip(b *testing.B, addr, network string, window, size int) {
	c, err := Dial(network, addr, 100003, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	args := make([]byte, size)
	ring := make([]*Pending, window)
	wait := func(p *Pending) {
		body, err := p.Wait(0)
		if err != nil {
			b.Fatal(err)
		}
		sinkBody = body
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
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
