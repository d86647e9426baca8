package rpcnet

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestPoolBoundsAndRoundRobin: N concurrent Gets open exactly
// min(N, size) connections, and once the pool is full the connections
// are handed out in turn — no connection serves more than one Get
// beyond any other.
func TestPoolBoundsAndRoundRobin(t *testing.T) {
	s := startServer(t)
	for _, tc := range []struct{ gets, size int }{{10, 3}, {2, 4}, {8, 8}} {
		t.Run(fmt.Sprintf("gets=%d/size=%d", tc.gets, tc.size), func(t *testing.T) {
			p := NewPool("tcp", s.Addr(), 100003, 3, tc.size, time.Second)
			defer p.Close()
			got := make(chan *Client, tc.gets)
			var wg sync.WaitGroup
			for i := 0; i < tc.gets; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := p.Get()
					if err != nil {
						t.Error(err)
						return
					}
					got <- c
				}()
			}
			wg.Wait()
			close(got)
			uses := make(map[*Client]int)
			for c := range got {
				uses[c]++
			}
			want := min(tc.gets, tc.size)
			if n := p.Conns(); n != want || len(uses) != want {
				t.Fatalf("pool opened %d connections, handed out %d distinct; want %d",
					n, len(uses), want)
			}
			lo, hi := tc.gets, 0
			for c, n := range uses {
				lo, hi = min(lo, n), max(hi, n)
				if _, err := c.Call(1, []byte("ping")); err != nil {
					t.Fatalf("pooled connection unusable: %v", err)
				}
			}
			if hi-lo > 1 {
				t.Fatalf("uneven hand-out: a connection served %d Gets, another %d", hi, lo)
			}
		})
	}
}

// TestPoolDialExhaustionTyped: a dial failing with local resource
// exhaustion surfaces from Get typed and unchanged, and the failed dial
// leaves no connection behind.
func TestPoolDialExhaustionTyped(t *testing.T) {
	p := NewPool("tcp", "127.0.0.1:1", 100003, 3, 4, 0)
	defer p.Close()
	p.dial = func() (*Client, error) {
		return nil, fmt.Errorf("rpcnet: %w: dial tcp: %v", ErrConnExhausted, syscall.EADDRNOTAVAIL)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Get(); !errors.Is(err, ErrConnExhausted) {
			t.Fatalf("Get returned %v, want ErrConnExhausted", err)
		}
	}
	if n := p.Conns(); n != 0 {
		t.Fatalf("failed dials left %d connections", n)
	}
}

// TestPoolClose: Close closes every pooled connection, and Get fails
// afterwards instead of dialing again.
func TestPoolClose(t *testing.T) {
	s := startServer(t)
	p := NewPool("tcp", s.Addr(), 100003, 3, 3, time.Second)
	var conns []*Client
	for i := 0; i < 3; i++ {
		c, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		if _, err := c.Call(1, nil); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("connection %d after pool Close: %v, want ErrClientClosed", i, err)
		}
	}
	if _, err := p.Get(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Get after Close returned %v, want ErrClientClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
