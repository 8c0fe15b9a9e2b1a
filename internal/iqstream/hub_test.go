package iqstream

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bhss/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubCloseStopsTxGoroutines pins the transmitter-leak fix: Close must
// sever transmitter connections too, so serveTx goroutines blocked in
// ReadBlock unwind without waiting for the peer to hang up.
func TestHubCloseStopsTxGoroutines(t *testing.T) {
	checkGoroutines(t)
	h, err := NewHub("127.0.0.1:0", HubConfig{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()

	var clients []*Client
	for i := 0; i < 3; i++ {
		tx, err := DialTx(h.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, tx)
	}
	rx, err := DialRx(h.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	clients = append(clients, rx)

	// The clients deliberately stay open across Close: the leak check at
	// cleanup proves the hub did not need them to hang up first.
	h.Close()
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
}

// TestHubHandshakeTable covers every handshake verdict, including the
// strict gain parse: an unparsable gain is refused outright, never silently
// run at 0 dB.
func TestHubHandshakeTable(t *testing.T) {
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{BlockSize: 64, Metrics: met})
	addr := h.Addr().String()

	cases := []struct {
		name, handshake, want string
	}{
		{"tx with gain", "IQHUB tx 3.5", "OK"},
		{"tx negative gain", "IQHUB tx -20", "OK"},
		{"tx default gain", "IQHUB tx", "OK"},
		{"rx", "IQHUB rx", "OK"},
		{"tx garbage gain", "IQHUB tx loud", "ERR bad gain"},
		{"tx NaN gain", "IQHUB tx NaN", "ERR bad gain"},
		{"tx Inf gain", "IQHUB tx +Inf", "ERR bad gain"},
		{"unknown role", "IQHUB spectator", `ERR unknown role "spectator"`},
		{"wrong magic", "HELLO world", "ERR bad handshake"},
		{"tx with link", "IQHUB tx 3 LINK 7", "OK"},
		{"rx with link", "IQHUB rx LINK 7", "OK"},
		{"jam role", "IQHUB jam", "OK"},
		{"jam with gain link tag", "IQHUB jam -10 LINK 2 TAG j1", "OK"},
		{"tx tagged", "IQHUB tx 0 TAG probe", "OK"},
		{"rx excluding", "IQHUB rx EXCL jam", "OK"},
		{"bad link", "IQHUB tx LINK banana", "ERR bad link"},
		{"link overflow", "IQHUB rx LINK 4294967296", "ERR bad link"},
		{"negative link", "IQHUB rx LINK -1", "ERR bad link"},
		{"bad tag", "IQHUB tx TAG *bad*", "ERR bad tag"},
		{"tag too long", "IQHUB tx TAG " + strings.Repeat("x", MaxTagLen+1), "ERR bad tag"},
		{"empty-ish excl", "IQHUB rx EXCL !", "ERR bad tag"},
		{"dangling key", "IQHUB rx LINK", "ERR bad handshake"},
		{"duplicate key", "IQHUB rx LINK 1 LINK 2", "ERR bad handshake"},
		{"tag on rx", "IQHUB rx TAG x", "ERR bad handshake"},
		{"excl on tx", "IQHUB tx EXCL x", "ERR bad handshake"},
		{"trailing junk", "IQHUB tx 3.5 whatever", "ERR bad handshake"},
	}
	rejects := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "%s\n", tc.handshake)
			line, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil {
				t.Fatalf("no reply: %v", err)
			}
			if got := strings.TrimSpace(line); got != tc.want {
				t.Fatalf("reply = %q, want %q", got, tc.want)
			}
			if strings.HasPrefix(tc.want, "ERR") {
				rejects++
				// The hub must have closed its side: the next read sees EOF.
				if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
					t.Fatal("connection still open after ERR reply")
				}
			}
		})
	}
	waitFor(t, time.Second, "handshake reject counter", func() bool {
		return met.HandshakeRejects.Load() == int64(rejects)
	})
}

// TestHubSlowReceiverEviction proves the mixer never blocks on a wedged
// receiver: the slow consumer is evicted once its queue has been full for
// the stall budget, while a healthy receiver keeps streaming.
func TestHubSlowReceiverEviction(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{
		BlockSize:     256,
		RxBuffer:      1,
		StallBudget:   30 * time.Millisecond,
		WriteDeadline: -1, // isolate the stall-eviction path from the write deadline
		Metrics:       met,
	})
	addr := h.Addr().String()

	// The slow receiver completes the handshake and then never reads.
	slow, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	// Stream until the slow receiver's socket and queue are saturated and
	// the stall budget has elapsed. The healthy receiver drains in
	// parallel, proving the mixer stayed live throughout.
	block := make([]complex128, 4096)
	for i := range block {
		block[i] = 1
	}
	done := make(chan struct{})
	var fastGot int
	go func() {
		defer close(done)
		for fastGot < 1<<21 {
			blk, err := fast.Recv()
			if err != nil {
				return
			}
			fastGot += len(blk)
		}
	}()
	deadline := time.Now().Add(15 * time.Second)
	for met.RxEvictions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after %d queue drops", met.RxQueueDrops.Load())
		}
		if err := tx.Send(block); err != nil {
			t.Fatalf("tx send: %v", err)
		}
	}
	tx.Close()
	<-done
	if met.RxQueueDrops.Load() == 0 {
		t.Fatal("expected queue drops before eviction")
	}
	if fastGot == 0 {
		t.Fatal("healthy receiver starved while slow receiver stalled")
	}
	// The evicted socket is closed server-side.
	if err := slow.SetRecvDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := slow.Recv(); err != nil {
			break
		}
	}
}

// TestHubTxOverflowDropOldest: with no receiver draining, a fast
// transmitter hits the queue bound and the oldest samples are discarded —
// bounded memory, bounded loss, connection kept.
func TestHubTxOverflowDropOldest(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{
		BlockSize:  256,
		MaxPending: 1024,
		Overflow:   OverflowDropOldest,
		Metrics:    met,
	})
	tx, err := DialTx(h.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	block := make([]complex128, 512)
	for i := 0; i < 16; i++ {
		if err := tx.Send(block); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "overflow drops", func() bool {
		return met.TxOverflowDrops.Load() > 0
	})
	// The bound is soft by at most one wire block.
	pending := h.pendingSamples()
	if pending > 1024+512 {
		t.Fatalf("pending %d exceeds bound 1024 by more than one block", pending)
	}
	if hw := met.QueueHighWater.Load(); hw == 0 || hw > 1024+512 {
		t.Fatalf("queue high-water %v out of (0, 1536]", hw)
	}
}

// TestHubTxOverflowBlockDeadline: under the block policy with no receiver,
// the transmitter is disconnected once it has been held at the bound past
// the overflow deadline.
func TestHubTxOverflowBlockDeadline(t *testing.T) {
	checkGoroutines(t)
	met := &obs.HubMetrics{}
	h := startHub(t, HubConfig{
		BlockSize:        256,
		MaxPending:       512,
		Overflow:         OverflowBlock,
		OverflowDeadline: 50 * time.Millisecond,
		Metrics:          met,
	})
	tx, err := DialTx(h.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	block := make([]complex128, 512)
	// First block is admitted (empty queue); the second is read off the
	// socket and then held at the bound until the deadline kills the
	// connection.
	for i := 0; i < 4; i++ {
		if err := tx.Send(block); err != nil {
			break // broken pipe once the hub hangs up — expected
		}
	}
	waitFor(t, 5*time.Second, "overflow kill", func() bool {
		return met.TxOverflowKills.Load() == 1
	})
	if met.TxOverflowWaits.Load() == 0 {
		t.Fatal("expected at least one backpressure wait before the kill")
	}
}

// TestHubTxBackpressureRecovers: the block policy is lossless when a
// receiver is draining — every sample sent arrives despite the tiny bound.
// The receiver queue holds the whole stream (80 mixed blocks): with the
// default 64 the mixer can fill it while the writer goroutine waits for a
// CPU, and receiver-side shedding, a separate policy, then drops blocks.
func TestHubTxBackpressureRecovers(t *testing.T) {
	checkGoroutines(t)
	const blocks, blockLen = 40, 256
	h := startHub(t, HubConfig{
		BlockSize:        128,
		MaxPending:       256,
		Overflow:         OverflowBlock,
		OverflowDeadline: 10 * time.Second,
		RxBuffer:         blocks * blockLen / 128,
	})
	addr := h.Addr().String()
	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	go func() {
		block := make([]complex128, blockLen)
		for i := range block {
			block[i] = 1
		}
		for i := 0; i < blocks; i++ {
			if err := tx.Send(block); err != nil {
				return
			}
		}
	}()
	got := recvN(t, rx, blocks*blockLen)
	for i, v := range got {
		if real(v) != 1 || imag(v) != 0 {
			t.Fatalf("sample %d = %v, want 1", i, v)
		}
	}
}

// TestHubShutdownDrains: a graceful shutdown delivers every already-queued
// sample to the receivers before closing.
func TestHubShutdownDrains(t *testing.T) {
	checkGoroutines(t)
	h, err := NewHub("127.0.0.1:0", HubConfig{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	addr := h.Addr().String()

	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const total = 10 * 256
	block := make([]complex128, 256)
	for i := range block {
		block[i] = 2
	}
	for i := 0; i < 10; i++ {
		if err := tx.Send(block); err != nil {
			t.Fatal(err)
		}
	}
	// No receiver yet, so nothing mixes: wait until the hub has enqueued
	// everything, then connect the receiver and shut down.
	waitFor(t, 5*time.Second, "tx queue fill", func() bool {
		return h.pendingSamples() == total
	})
	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- h.Shutdown(ctx)
	}()
	got := recvN(t, rx, total)
	for i, v := range got {
		if real(v) != 2 {
			t.Fatalf("sample %d = %v, want 2", i, v)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After the drain the hub is fully closed: the stream ends.
	if err := rx.SetRecvDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Recv(); err == nil {
		t.Fatal("stream still open after drained shutdown")
	}
}

// TestHubShutdownDeadline: an undrainable queue (stalled receiver) cannot
// hold Shutdown hostage — the context bounds it.
func TestHubShutdownDeadline(t *testing.T) {
	checkGoroutines(t)
	h, err := NewHub("127.0.0.1:0", HubConfig{
		BlockSize:     256,
		RxBuffer:      1,
		StallBudget:   -1, // never evict: the queue stays permanently full
		WriteDeadline: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve()
	t.Cleanup(func() { h.Close() })
	addr := h.Addr().String()

	rx, err := DialRx(addr) // never reads
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	block := make([]complex128, 4096)
	for i := 0; i < 64; i++ {
		if err := tx.Send(block); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := h.Shutdown(ctx); err != context.DeadlineExceeded {
		// The wedged receiver may also have been fully flushed into OS
		// socket buffers, in which case the drain legitimately finishes.
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
}

// TestHubConnectionChurn hammers the hub with concurrent connect/disconnect
// cycles of both roles while a persistent link keeps flowing — run under
// -race this pins the registration/eviction locking, and the goroutine
// check pins the teardown of every handler.
func TestHubConnectionChurn(t *testing.T) {
	checkGoroutines(t)
	h := startHub(t, HubConfig{
		BlockSize:  256,
		MaxPending: 1 << 16,
		Overflow:   OverflowDropOldest,
		// Default StallBudget: an unthrottled transmitter makes the mixer
		// outrun even a healthy receiver, and this test is about churn,
		// not eviction.
	})
	addr := h.Addr().String()

	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	stop := make(chan struct{})
	var txErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // persistent transmitter
		defer wg.Done()
		block := make([]complex128, 1024)
		for i := range block {
			block[i] = 1
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tx.Send(block); err != nil {
				txErr = err
				return
			}
		}
	}()

	const churners = 6
	const rounds = 15
	wg.Add(churners)
	for c := 0; c < churners; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c%2 == 0 {
					cl, err := DialTx(addr, -10)
					if err != nil {
						continue // hub teardown race at test end is fine
					}
					_ = cl.Send(make([]complex128, 512))
					cl.Close()
				} else {
					cl, err := DialRx(addr)
					if err != nil {
						continue
					}
					_ = cl.SetRecvDeadline(time.Now().Add(20 * time.Millisecond))
					_, _ = cl.Recv()
					cl.Close()
				}
			}
		}(c)
	}

	// The persistent receiver must keep making progress through the churn.
	got := recvN(t, rx, 1<<18)
	if len(got) != 1<<18 {
		t.Fatalf("persistent rx got %d samples", len(got))
	}
	close(stop)
	wg.Wait()
	if txErr != nil {
		t.Fatalf("persistent tx failed: %v", txErr)
	}
}

// TestHubJamHook pins the hub-side adversary semantics (bhssair -jam): the
// hook overhears the clean mixed block — its own interference is NOT looped
// back into what it senses, unlike a bhssjam client — and the returned
// waveform rides on top of the mix that every receiver sees.
func TestHubJamHook(t *testing.T) {
	checkGoroutines(t)
	var heard []complex128
	h := startHub(t, HubConfig{
		BlockSize: 64,
		Jam: func(mix []complex128) []complex128 {
			heard = append(heard[:0], mix...)
			j := make([]complex128, len(mix))
			for i := range j {
				j[i] = complex(0, 3)
			}
			return j
		},
	})
	addr := h.Addr().String()
	rx, err := DialRx(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := DialTx(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	block := make([]complex128, 64)
	for i := range block {
		block[i] = 1
	}
	if err := tx.Send(block); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, rx, 64)
	for i, v := range got {
		if v != complex(1, 3) {
			t.Fatalf("sample %d = %v, want (1+3i): jam waveform missing from the mix", i, v)
		}
	}
	// The receive above happens-after the mixer's Jam call (channel send +
	// socket write), so reading the captured sense buffer here is ordered.
	if len(heard) != 64 {
		t.Fatalf("adversary heard %d samples, want 64", len(heard))
	}
	for i, v := range heard {
		if v != 1 {
			t.Fatalf("heard[%d] = %v, want the clean pre-jam mix (1)", i, v)
		}
	}
}

// TestOverflowPolicyStrings pins the flag round-trip.
func TestOverflowPolicyStrings(t *testing.T) {
	for _, p := range []OverflowPolicy{OverflowBlock, OverflowDropOldest} {
		got, err := ParseOverflowPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := ParseOverflowPolicy("banana"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if s := OverflowPolicy(42).String(); s != "OverflowPolicy(42)" {
		t.Fatalf("unknown policy string = %q", s)
	}
}

// TestHubConfigResilienceValidation extends the config validation to the
// new transport fields.
func TestHubConfigResilienceValidation(t *testing.T) {
	bad := []HubConfig{
		{MaxPending: -1},
		{RxBuffer: -1},
		{Overflow: OverflowPolicy(9)},
	}
	for i, cfg := range bad {
		if _, err := NewHub("127.0.0.1:0", cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}
