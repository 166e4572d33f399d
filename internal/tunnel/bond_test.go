package tunnel

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/transport"
)

// bondedPair builds a client/server session bonded over k connections
// through a memory network with per-write latency. wrap, if non-nil,
// wraps each dialed connection (index 0 is the primary) — the hook the
// loss tests use to degrade individual members.
func bondedPair(t *testing.T, k int, lat time.Duration, cfg Config, wrap func(i int, c net.Conn) net.Conn) (*Session, *Session) {
	t.Helper()
	mem := transport.NewMemNetwork(transport.WithLatency(lat))
	t.Cleanup(func() { _ = mem.Close() })
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewBondRegistry()
	sessCh := make(chan *Session, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				s, err := ServerConn(conn, reg, cfg, 5*time.Second)
				if err == nil && s != nil {
					sessCh <- s
				}
			}(conn)
		}
	}()

	dialOne := func(i int) net.Conn {
		conn, err := mem.Dial(context.Background(), "peer")
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			conn = wrap(i, conn)
		}
		return conn
	}
	client := Client(dialOne(0), cfg)
	// The server session materializes on the client's first frame.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	server := <-sessCh

	var id BondID
	copy(id[:], "bond-test-id-16b")
	reg.Expect(id, server, k-1)
	for i := 1; i < k; i++ {
		if err := client.AddBondConn(id, i, dialOne(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, func() bool {
		return client.BondWidth() == k && server.BondWidth() == k
	})
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// transferExact writes data on a fresh client stream and verifies the
// server receives it byte for byte.
func transferExact(t *testing.T, client, server *Session, data []byte, during func()) {
	t.Helper()
	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, werr := st.Write(data)
		if werr == nil {
			werr = st.CloseWrite()
		}
		errCh <- werr
	}()
	if during != nil {
		during()
	}
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if werr := <-errCh; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: got %d bytes want %d", len(got), len(data))
	}
}

// TestBondedPairReassembly sprays one stream over three member
// connections and requires byte-exact in-order delivery.
func TestBondedPairReassembly(t *testing.T) {
	client, server := bondedPair(t, 3, 50*time.Microsecond, Config{}, nil)
	if got := client.BondWidth(); got != 3 {
		t.Fatalf("client bond width %d, want 3", got)
	}
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(7)).Read(data)
	transferExact(t, client, server, data, nil)
	if got := server.BondWidth(); got != 3 {
		t.Fatalf("server bond width %d after transfer, want 3", got)
	}
}

// TestBondMemberDeathZeroByteLoss kills a secondary member mid-stream:
// the unacknowledged tail must be resprayed over the survivors and the
// receiver must still observe every byte exactly once, in order. Run
// with -race this also exercises the failover locking. Once the traffic
// stops, the acks must release everything the survivors kept, also when
// the bond shrinks back to its primary alone.
func TestBondMemberDeathZeroByteLoss(t *testing.T) {
	for _, k := range []int{3, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			client, server := bondedPair(t, k, 50*time.Microsecond, Config{}, nil)
			data := make([]byte, 8<<20)
			rand.New(rand.NewSource(11)).Read(data)
			transferExact(t, client, server, data, func() {
				// Let the spray get going, then yank a secondary's transport.
				time.Sleep(5 * time.Millisecond)
				ms := client.liveMembers()
				if len(ms) != k {
					t.Errorf("bond width %d before kill, want %d", len(ms), k)
					return
				}
				_ = ms[k-1].conn.Close()
			})
			waitUntil(t, 5*time.Second, func() bool { return client.BondWidth() == k-1 })
			if server.isClosed() || client.isClosed() {
				t.Fatal("session died on secondary member failure")
			}
			// The shrunken bond must still carry traffic.
			transferExact(t, client, server, data[:1<<20], nil)
			waitUntil(t, 5*time.Second, func() bool {
				for _, m := range client.liveMembers() {
					if m.outstanding.Load() != 0 {
						return false
					}
				}
				return true
			})
		})
	}
}

// TestBondLossyMemberStillExact degrades one member with 30% loss and
// added latency: the least-outstanding spray should route around it,
// and delivery must stay byte-exact regardless.
func TestBondLossyMemberStillExact(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-link test sleeps for shaping delays")
	}
	shape := failure.Shape{Latency: 500 * time.Microsecond, Loss: 0.3}
	client, server := bondedPair(t, 3, 50*time.Microsecond, Config{}, func(i int, c net.Conn) net.Conn {
		if i == 2 {
			return failure.ShapedConn(c, shape, 42)
		}
		return c
	})
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(13)).Read(data)
	transferExact(t, client, server, data, nil)
}

// TestServerConnLegacyClientFallback: a peer that never sends BONDJOIN
// (one negotiated down to one connection) gets a plain single-connection
// session from ServerConn — a bond of one, with working streams.
func TestServerConnLegacyClientFallback(t *testing.T) {
	mem := transport.NewMemNetwork()
	t.Cleanup(func() { _ = mem.Close() })
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewBondRegistry()
	sessCh := make(chan *Session, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s, err := ServerConn(conn, reg, Config{BondConns: 4}, 5*time.Second)
		if err == nil && s != nil {
			sessCh <- s
		}
	}()
	conn, err := mem.Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	// A dialer that never joins bond members: plain Client.
	client := Client(conn, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	server := <-sessCh
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })

	st, err := client.Open(context.Background(), []byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if client.BondWidth() != 1 || server.BondWidth() != 1 {
		t.Fatal("bond width != 1 on single-connection session")
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	go func() {
		_, _ = st.Write(data)
		_ = st.CloseWrite()
	}()
	got, err := io.ReadAll(peer)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("single-connection exchange broken: err=%v got=%d bytes", err, len(got))
	}
}

// TestDeliverSeqReorderAndDup unit-tests the reassembly rules directly:
// early frames park, duplicates (parked or already delivered) drop, FIN
// occupies a sequence slot so it cannot overtake data.
func TestDeliverSeqReorderAndDup(t *testing.T) {
	client, server := pair(t, Config{})
	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Arrivals: seq 2 early, seq 1 early, dup of 2, FIN at 3, then seq 0
	// unlocks everything; dup of 0 after delivery is dropped.
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(peer.deliverSeq(2, []byte("c"), false))
	check(peer.deliverSeq(1, []byte("b"), false))
	check(peer.deliverSeq(2, []byte("X"), false)) // dup of parked frame
	check(peer.deliverSeq(3, nil, true))          // FIN
	check(peer.deliverSeq(0, []byte("a"), false))
	check(peer.deliverSeq(0, []byte("Y"), false)) // dup of delivered frame
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("reassembled %q, want \"abc\"", got)
	}
}

// TestAdaptiveWindowConvergesUnderLoss runs an adaptive receiver behind
// a 30%-loss, latency-spiking link and requires the estimator to settle
// on a sane window: RTT and bandwidth samples present, target inside
// [WindowMin, WindowMax] on every observation, and the transfer itself
// byte-exact.
func TestAdaptiveWindowConvergesUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("loss shaping sleeps")
	}
	cfg := Config{
		WindowMin:     32 << 10,
		WindowMax:     1 << 20,
		ProbeInterval: 5 * time.Millisecond,
	}
	shape := failure.Shape{Latency: 1 * time.Millisecond, Jitter: 200 * time.Microsecond, Loss: 0.3}
	mem := transport.NewMemNetwork(transport.WithLatency(50 * time.Microsecond))
	t.Cleanup(func() { _ = mem.Close() })
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	connCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			connCh <- conn
		}
	}()
	clientConn, err := mem.Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	// The client (sender) side is lossy; the server is the adaptive
	// receiver whose PONGs and data arrive through the shaped pipe.
	client := Client(failure.ShapedConn(clientConn, shape, 99), cfg)
	server := Server(<-connCh, cfg)
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })

	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(17)).Read(data)
	writeDone := make(chan error, 1)
	go func() {
		_, werr := st.Write(data)
		if werr == nil {
			werr = st.CloseWrite()
		}
		writeDone <- werr
	}()

	var got bytes.Buffer
	buf := make([]byte, 64<<10)
	violations := 0
	for {
		n, rerr := peer.Read(buf)
		got.Write(buf[:n])
		// Observe the live target as the transfer runs: the clamp
		// invariant must hold at every instant, not just at the end.
		if target := server.windowTarget(); target < int64(cfg.WindowMin) || target > int64(cfg.WindowMax) {
			violations++
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("window target escaped [WindowMin, WindowMax] %d times", violations)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("transfer corrupted under loss: got %d bytes", got.Len())
	}
	// The estimators must have real samples by now: a 1ms+ shaped path
	// cannot legitimately measure a zero RTT, and a 2 MiB transfer
	// produces delivery-rate ticks.
	if rtt := server.flow.minRTT(); rtt < 500*time.Microsecond {
		t.Fatalf("min RTT %v implausibly small for a 1ms shaped path", rtt)
	}
	if bw := server.flow.maxBW(); bw <= 0 {
		t.Fatal("no delivery-rate samples collected")
	}
	if target := server.windowTarget(); target < int64(cfg.WindowMin) || target > int64(cfg.WindowMax) {
		t.Fatalf("final target %d outside clamps", target)
	}
}

// TestAdaptiveWindowRespectsMemBudget opens many streams on a session
// with a small memory budget and polls the live window target
// throughout a concurrent transfer: it must never exceed
// MemBudget / live-streams (floored), so total promised buffering stays
// bounded no matter what the estimators claim.
func TestAdaptiveWindowRespectsMemBudget(t *testing.T) {
	const streams = 8
	cfg := Config{
		MemBudget:     64 << 10,
		ProbeInterval: 2 * time.Millisecond,
	}
	client, server := pair(t, cfg)

	var pairs [streams]struct{ st, peer *Stream }
	for i := 0; i < streams; i++ {
		st, err := client.Open(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := server.Accept(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pairs[i].st, pairs[i].peer = st, peer
	}
	// Budget clamp: 64 KiB over 8 streams = 8 KiB per stream (above the
	// 4 KiB floor, so the division is what must bind).
	const perStream = 64 << 10 / streams

	done := make(chan struct{})
	for i := 0; i < streams; i++ {
		go func(st *Stream) {
			payload := make([]byte, 16<<10)
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := st.Write(payload); err != nil {
					return
				}
			}
		}(pairs[i].st)
		go func(peer *Stream) {
			_, _ = io.Copy(io.Discard, peer)
		}(pairs[i].peer)
	}

	// Each Open clamped the target already; let the transfer and a few
	// prober ticks run, then hold the target to the clamp throughout.
	time.Sleep(20 * time.Millisecond)
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if target := server.windowTarget(); target > perStream {
			close(done)
			t.Fatalf("window target %d exceeds memory clamp %d", target, perStream)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
}

// TestMismatchedWindowRangesInteroperate moves 4 MiB each way over one
// stream between ends whose window ranges do not even overlap: one
// floors its window at 1 MiB, the other caps it at 64 KiB. Each end's
// grants follow its own range, and both start every stream at
// DefaultWindow of credit, so neither overruns the other.
func TestMismatchedWindowRangesInteroperate(t *testing.T) {
	client, server := pairWith(t,
		Config{WindowMin: 1 << 20, WindowMax: 4 << 20},
		Config{WindowMin: 16 << 10, WindowMax: 64 << 10})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The SYN travels with the first write.
	errs := make(chan error, 4)
	up := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(up)
	go func() {
		_, err := out.Write(up)
		if err == nil {
			err = out.CloseWrite()
		}
		errs <- err
	}()
	in, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	down := make([]byte, 4<<20)
	rand.New(rand.NewSource(2)).Read(down)
	go func() {
		_, err := in.Write(down)
		if err == nil {
			err = in.CloseWrite()
		}
		errs <- err
	}()
	check := func(st *Stream, want []byte, dir string) {
		got, err := io.ReadAll(st)
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%s: got %d bytes, want %d, or content differs", dir, len(got), len(want))
		}
		errs <- err
	}
	go check(in, up, "client to server")
	go check(out, down, "server to client")
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Session{client, server} {
		select {
		case <-s.Done():
			t.Fatalf("session ended: %v", s.Err())
		default:
		}
	}
}
