package rpcnet

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/obs"
	"nfstricks/internal/sunrpc"
)

// lossyPolicy keeps retransmission cheap on loopback.
func lossyPolicy(seed int64) RetryPolicy {
	return RetryPolicy{
		MaxTransmits: 12,
		InitialRTO:   50 * time.Millisecond,
		MinRTO:       20 * time.Millisecond,
		MaxRTO:       time.Second,
		Jitter:       0.2,
		Seed:         seed,
	}
}

// TestRetrierRecoversFromLoss: 25% per-direction datagram loss (a 44%
// round-trip failure rate); every call still completes with the right
// answer, via retransmission.
func TestRetrierRecoversFromLoss(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 21, DropProb: 0.25})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			reply = append(reply, byte(proc))
			return append(reply, body...), sunrpc.AcceptSuccess
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("udp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.NewRetrier(lossyPolicy(22))
	for i := 0; i < 60; i++ {
		payload := []byte{byte(i), byte(i >> 8)}
		body, err := r.Call(3, payload)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(body, append([]byte{3}, payload...)) {
			t.Fatalf("call %d: reply %v", i, body)
		}
	}
	st := r.Stats()
	if st.Calls != 60 {
		t.Fatalf("stats %v, want 60 calls", st)
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions at 25% loss — injector or retry loop not engaged")
	}
	if st.MajorTimeouts != 0 {
		t.Fatalf("%d major timeouts with 12 transmits at 25%% loss", st.MajorTimeouts)
	}
}

// TestRetrierConcurrentCallsUnderLoss: concurrent retried calls on one
// client must demux correctly even as retransmissions interleave.
// (Run under -race.)
func TestRetrierConcurrentCallsUnderLoss(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 23, DropProb: 0.2})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			return append(reply, body...), sunrpc.AcceptSuccess
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("udp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.NewRetrier(lossyPolicy(24))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 15; j++ {
				payload := []byte{byte(g), byte(j), byte(g ^ j)}
				body, err := r.Call(1, payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body, payload) {
					errs <- errors.New("reply routed to wrong retried call")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRetrierMajorTimeout: a silent server exhausts MaxTransmits within
// a bounded wall-clock, and the error names both the abandonment and
// its cause.
func TestRetrierMajorTimeout(t *testing.T) {
	block := make(chan struct{})
	s, err := NewServerInfo("127.0.0.1:0", 1, 1, func(_ CallInfo, _ uint32, _ []byte, reply []byte) ([]byte, uint32) {
		<-block
		return reply, sunrpc.AcceptSuccess
	}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		s.Close()
	}()
	c, err := Dial("udp", s.Addr(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.NewRetrier(RetryPolicy{MaxTransmits: 3, InitialRTO: 40 * time.Millisecond, MinRTO: 20 * time.Millisecond, Seed: 31})
	start := time.Now()
	_, err = r.Call(1, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrMajorTimeout) {
		t.Fatalf("err = %v, want ErrMajorTimeout", err)
	}
	if !errors.Is(err, ErrReplyTimeout) {
		t.Fatalf("err = %v, should wrap ErrReplyTimeout as the cause", err)
	}
	// 40 + 80 + 160 = 280ms of waits (plus jitter 0 here); anything
	// over a few seconds means the backoff clamp or loop is wrong.
	if elapsed > 3*time.Second {
		t.Fatalf("major timeout took %v", elapsed)
	}
	st := r.Stats()
	if st.MajorTimeouts != 1 || st.Retransmits != 2 || st.Calls != 1 {
		t.Fatalf("stats %v, want 1 call, 2 retransmits, 1 major", st)
	}
}

// TestRetrierSurvivesServerRestart: the send-failure path. A UDP send
// to a dead port fails at the socket (ECONNREFUSED); the retrier treats
// it like a lost datagram and keeps retransmitting, so when a server
// comes back on the same address mid-call, the call completes.
func TestRetrierSurvivesServerRestart(t *testing.T) {
	s := startServer(t)
	addr := s.Addr()
	c, err := Dial("udp", addr, 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.NewRetrier(RetryPolicy{MaxTransmits: 20, InitialRTO: 50 * time.Millisecond, MinRTO: 40 * time.Millisecond, MaxRTO: 100 * time.Millisecond, Seed: 37})
	if _, err := r.Call(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := r.Call(1, []byte("through the outage"))
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	s2, err := NewServerInfo(addr, 100003, 3, echoHandler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := <-done; err != nil {
		t.Fatalf("call through restart failed: %v", err)
	}
	if st := r.Stats(); st.Retransmits == 0 {
		t.Fatalf("stats %v: restart survived without retransmission?", st)
	}
}

// TestRetrierRTTEstimator: the Jacobson update sequence, directly.
func TestRetrierRTTEstimator(t *testing.T) {
	r := &Retrier{p: RetryPolicy{}.filled()}
	r.observe(100 * time.Millisecond)
	if srtt, rttvar := r.RTT(); srtt != 100*time.Millisecond || rttvar != 50*time.Millisecond {
		t.Fatalf("after first sample: srtt=%v rttvar=%v", srtt, rttvar)
	}
	// Second sample 200ms: rttvar = (3*50 + |100-200|)/4 = 62.5ms,
	// srtt = (7*100 + 200)/8 = 112.5ms.
	r.observe(200 * time.Millisecond)
	srtt, rttvar := r.RTT()
	if srtt != 112500*time.Microsecond || rttvar != 62500*time.Microsecond {
		t.Fatalf("after second sample: srtt=%v rttvar=%v", srtt, rttvar)
	}
	// The call RTO for the next call is srtt + 4*rttvar, clamped.
	if rto := r.initialRTO(); rto != 362500*time.Microsecond {
		t.Fatalf("initialRTO = %v, want 362.5ms", rto)
	}
}

// TestRetrierLearnsFastRTO: on a clean loopback path the estimator
// drives the RTO from the 500ms default down to the MinRTO floor.
func TestRetrierLearnsFastRTO(t *testing.T) {
	s := startServer(t)
	c, err := Dial("udp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.NewRetrier(RetryPolicy{MinRTO: 5 * time.Millisecond, Seed: 41})
	for i := 0; i < 30; i++ {
		if _, err := r.Call(1, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	srtt, _ := r.RTT()
	if srtt == 0 {
		t.Fatal("no RTT samples on a clean path")
	}
	if rto := r.initialRTO(); rto >= 500*time.Millisecond {
		t.Fatalf("RTO still %v after 30 clean samples", rto)
	}
}

// TestRetrierJitterBounds: jittered waits stay in [d, d*(1+Jitter)].
func TestRetrierJitterBounds(t *testing.T) {
	r := &Retrier{p: RetryPolicy{Jitter: 0.5}.filled(), rng: rand.New(rand.NewSource(43))}
	const d = 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := r.jittered(d)
		if j < d || j > d+d/2 {
			t.Fatalf("jittered(%v) = %v, want [%v, %v]", d, j, d, d+d/2)
		}
	}
}

// TestRetrierRegisterObs: the registry-exported counters must match
// Stats() exactly, and the RTO gauge must track the estimator (clamped
// srtt + 4·rttvar once samples exist).
func TestRetrierRegisterObs(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{Seed: 7, DropProb: 0.25})
	s, err := NewServerInfo("127.0.0.1:0", 100003, 3,
		func(_ CallInfo, proc uint32, body, reply []byte) ([]byte, uint32) {
			return append(reply, body...), sunrpc.AcceptSuccess
		}, ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial("udp", s.Addr(), 100003, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.NewRetrier(lossyPolicy(8))
	reg := obs.NewRegistry()
	r.RegisterObs(reg)

	// Before any call: all counters present and zero, gauge at the
	// clamped InitialRTO.
	snap := reg.Dump()
	for _, name := range []string{
		"rpcnet_retry_calls_total", "rpcnet_retry_retransmits_total",
		"rpcnet_retry_major_timeouts_total", "rpcnet_retry_send_failures_total",
	} {
		v, ok := snap.Counters[name]
		if !ok {
			t.Fatalf("counter %s not registered", name)
		}
		if v != 0 {
			t.Fatalf("%s = %d before any call", name, v)
		}
	}
	if got, want := snap.Gauges["rpcnet_retry_rto_seconds"], lossyPolicy(8).InitialRTO.Seconds(); got != want {
		t.Fatalf("initial rto gauge %v, want %v", got, want)
	}

	for i := 0; i < 40; i++ {
		if _, err := r.Call(3, []byte{byte(i)}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	snap = reg.Dump()
	st := r.Stats()
	if snap.Counters["rpcnet_retry_calls_total"] != st.Calls ||
		snap.Counters["rpcnet_retry_retransmits_total"] != st.Retransmits ||
		snap.Counters["rpcnet_retry_major_timeouts_total"] != st.MajorTimeouts ||
		snap.Counters["rpcnet_retry_send_failures_total"] != st.SendFailures {
		t.Fatalf("registry %v vs Stats %+v", snap.Counters, st)
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions at 25% loss")
	}
	srtt, rttvar := r.RTT()
	if srtt == 0 {
		t.Fatal("no RTT sample after 40 calls")
	}
	want := r.clamp(srtt + 4*rttvar).Seconds()
	if got := snap.Gauges["rpcnet_retry_rto_seconds"]; got != want {
		t.Fatalf("rto gauge %v, want clamp(srtt+4·rttvar) = %v", got, want)
	}
}
