package tunnel

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// pair builds a connected client/server session over the in-memory network.
func pair(t *testing.T, cfg Config) (*Session, *Session) {
	t.Helper()
	return pairWith(t, cfg, cfg)
}

// pairWith is pair with separate client and server configs.
func pairWith(t *testing.T, clientCfg, serverCfg Config) (*Session, *Session) {
	t.Helper()
	mem := transport.NewMemNetwork()
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- res{conn, err}
	}()
	clientConn, err := mem.Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	client := Client(clientConn, clientCfg)
	server := Server(r.conn, serverCfg)
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func TestOpenAcceptEcho(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		defer st.Close()
		_, _ = io.Copy(st, st)
	}()

	st, err := client.Open(ctx, []byte("echo"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	msg := []byte("hello through the tunnel")
	if _, err := st.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestMetaDelivered(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	meta := []byte("stream-open-metadata")
	go func() {
		_, _ = client.Open(ctx, meta)
	}()
	st, err := server.Accept(ctx)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if !bytes.Equal(st.Meta(), meta) {
		t.Errorf("Meta = %q, want %q", st.Meta(), meta)
	}
}

func TestLargeTransferExceedsWindow(t *testing.T) {
	// Transfers much larger than the flow-control window exercise WINDOW
	// credit replenishment.
	client, server := pair(t, Config{WindowMin: 16 << 10, WindowMax: 16 << 10})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const size = 2 << 20 // 128x the window
	payload := make([]byte, size)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			errCh <- err
			return
		}
		defer st.Close()
		if _, err := st.Write(payload); err != nil {
			errCh <- err
			return
		}
		errCh <- st.CloseWrite()
	}()

	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestManyConcurrentStreams(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const streams = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < streams; i++ {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer st.Close()
				_, _ = io.Copy(st, st)
			}()
		}
	}()

	var clientWG sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		clientWG.Add(1)
		go func(i int) {
			defer clientWG.Done()
			st, err := client.Open(ctx, nil)
			if err != nil {
				errs <- fmt.Errorf("open %d: %w", i, err)
				return
			}
			defer st.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1000+i)
			if _, err := st.Write(msg); err != nil {
				errs <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(st, got); err != nil {
				errs <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	clientWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPing(t *testing.T) {
	client, _ := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestSessionCloseFailsStreams(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		_ = st // hold open
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := st.Read(make([]byte, 1)); err == nil {
		t.Error("Read after session close should fail")
	}
	if _, err := client.Open(ctx, nil); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Open after close = %v, want ErrSessionClosed", err)
	}
}

func TestPeerDisappearanceUnblocksReaders(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		_, _ = server.Accept(ctx)
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := st.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = server.Close()
	select {
	case err := <-readErr:
		if err == nil {
			t.Error("expected read error after peer close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader not unblocked after peer disappeared")
	}
}

func TestHalfClose(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		// Read until EOF, then respond.
		data, err := io.ReadAll(st)
		if err != nil {
			return
		}
		_, _ = st.Write(bytes.ToUpper(data))
		_ = st.CloseWrite()
	}()

	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "ABC" {
		t.Errorf("got %q, want ABC", got)
	}
	<-done
}

func TestReadDeadline(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { _, _ = server.Accept(ctx) }()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = st.Read(make([]byte, 1))
	if !errors.Is(err, errDeadline(err)) && err == nil {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline took %v", elapsed)
	}
}

// errDeadline helps assert any timeout-ish error without importing os here.
func errDeadline(err error) error { return err }

func TestWriteBlockedByWindowRespectsDeadline(t *testing.T) {
	client, server := pair(t, Config{WindowMin: 4096, WindowMax: 4096})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		// Accept but never read, so the sender exhausts its window.
		_, _ = server.Accept(ctx)
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = st.Write(make([]byte, 1<<20))
	if err == nil {
		t.Fatal("expected write to fail on deadline while window-blocked")
	}
}

func TestStreamIDsDoNotCollide(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Open from both sides simultaneously.
	go func() {
		for i := 0; i < 10; i++ {
			_, _ = server.Accept(ctx)
		}
	}()
	go func() {
		for i := 0; i < 10; i++ {
			_, _ = client.Accept(ctx)
		}
	}()
	ids := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			st, err := client.Open(ctx, nil)
			if err == nil {
				mu.Lock()
				ids[fmt.Sprintf("c%d", st.ID())] = true
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			st, err := server.Open(ctx, nil)
			if err == nil {
				mu.Lock()
				ids[fmt.Sprintf("s%d", st.ID())] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Client ids odd, server ids even.
	for id := range ids {
		var n uint32
		var side byte
		if _, err := fmt.Sscanf(id, "%c%d", &side, &n); err != nil {
			t.Fatalf("parse %q: %v", id, err)
		}
		if side == 'c' && n%2 != 1 {
			t.Errorf("client stream id %d not odd", n)
		}
		if side == 's' && n%2 != 0 {
			t.Errorf("server stream id %d not even", n)
		}
	}
}

func TestMetricsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	client, server := pair(t, Config{Metrics: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		for {
			if _, err := st.Read(buf); err != nil {
				return
			}
		}
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	// Both sessions share the registry; the receiving side counts
	// tunneled bytes.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(metrics.BytesTunneled).Value() >= 10_000 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter(metrics.BytesTunneled).Value(); got < 10_000 {
		t.Errorf("BytesTunneled = %d, want >= 10000", got)
	}
	if got := reg.Counter(metrics.StreamsOpened).Value(); got < 1 {
		t.Errorf("StreamsOpened = %d, want >= 1", got)
	}
}

// TestAcceptBacklogRefusesExcessStreams opens five streams to a server
// that accepts none, once with a full accept backlog and once with a full
// stream table: the first two SYNs are taken and the rest refused. Open
// does not wait for the verdict, so the refusal shows on each refused
// stream's first Read.
func TestAcceptBacklogRefusesExcessStreams(t *testing.T) {
	for _, tc := range []struct {
		name   string
		server Config
	}{
		{"backlog", Config{AcceptBacklog: 2}},
		{"max-streams", Config{MaxStreams: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, _ := pairWith(t, Config{}, tc.server)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var streams []*Stream
			for i := 0; i < 5; i++ {
				st, err := client.Open(ctx, nil)
				if err != nil {
					t.Fatalf("open %d: %v", i, err)
				}
				streams = append(streams, st)
			}
			for i, st := range streams[2:] {
				if _, err := st.Read(make([]byte, 1)); !errors.Is(err, ErrStreamRefused) {
					t.Errorf("stream %d first Read = %v, want ErrStreamRefused", i+2, err)
				}
			}
			if n := client.NumStreams(); n != 2 {
				t.Errorf("NumStreams = %d after refusals, want 2", n)
			}
		})
	}
}

// rawPeer gives a test direct frame-level access to one side of a
// session, for protocol-violation injection. Its streams start with
// DefaultWindow of credit, as every stream does, and then run on a static
// 8 KiB window. Its prober never ticks within a test, so the frames the
// raw side reads are the ones the test provoked: no PINGs and no
// straggler BONDACK sweeps in between (a BONDACK still follows every
// 16 DATAQ frames the raw side sends).
func rawPeer(t *testing.T) (*Session, net.Conn) {
	t.Helper()
	conn, raw := memConnPair(t)
	session := Server(conn, Config{WindowMin: 8 << 10, WindowMax: 8 << 10, ProbeInterval: time.Hour})
	t.Cleanup(func() { _ = session.Close() })
	return session, raw
}

// memConnPair returns the two ends of one in-memory connection.
func memConnPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	mem := transport.NewMemNetwork()
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
	raw, err := mem.Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	return <-connCh, raw
}

// gatedConn fails every write as a connection whose peer hung up does,
// and holds its reads back until gate closes, so a test can make a
// session's write fail before its read loop has seen why.
type gatedConn struct {
	net.Conn
	gate chan struct{}
}

func (g *gatedConn) Read(p []byte) (int, error) {
	<-g.gate
	return g.Conn.Read(p)
}

func (g *gatedConn) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// gatedSession starts a server session over a gatedConn whose peer, the
// raw end, has closed (after a GOAWAY if goaway is set), and makes the
// session write once.
func gatedSession(t *testing.T, goaway bool) (*Session, chan struct{}) {
	t.Helper()
	conn, raw := memConnPair(t)
	gc := &gatedConn{Conn: conn, gate: make(chan struct{})}
	session := Server(gc, Config{})
	t.Cleanup(func() { _ = session.Close() })
	if goaway {
		if err := wire.NewWriter(raw).WriteControl(frameGOAWAY, nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = raw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := session.Ping(ctx); err == nil {
		t.Fatal("Ping over a closed connection succeeded")
	}
	return session, gc.gate
}

// TestWriteFailureAfterGoawayEndsSessionClosed: the peer says GOAWAY and
// hangs up, and the session's next write fails before its read loop has
// reached the goodbye. The session must still end as ErrSessionClosed,
// the clean hang-up it was, not with the write error.
func TestWriteFailureAfterGoawayEndsSessionClosed(t *testing.T) {
	session, gate := gatedSession(t, true)
	close(gate)
	select {
	case <-session.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session outlived its peer")
	}
	// Err reports a clean ErrSessionClosed as nil.
	if err := session.Err(); err != nil {
		t.Fatalf("Err = %v, want a clean close", err)
	}
}

// TestWriteFailureWithoutGoodbyeEndsSession: the write fails and the read
// side reports nothing at all. The session must end with the write error
// once the grace runs out rather than wait for a read that never comes.
func TestWriteFailureWithoutGoodbyeEndsSession(t *testing.T) {
	start := time.Now()
	session, gate := gatedSession(t, false)
	defer close(gate)
	select {
	case <-session.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session waits on its read side for good")
	}
	if d := time.Since(start); d < writeFailGrace {
		t.Errorf("session ended after %v, inside the %v grace", d, writeFailGrace)
	}
	if err := session.Err(); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Err = %v, want the write error", err)
	}
}

func TestWindowOverrunKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)

	// Open a stream legitimately (SYN id=1) ...
	if err := w.WriteFrame(0x10, wire.AppendUint32(nil, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := session.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	// ... then flood it past its initial credit, in order, without any
	// reads happening.
	for seq := uint64(0); seq*maxSegment <= DefaultWindow; seq++ {
		if err := w.WriteFrame(frameDATAQ, dataq(seq, make([]byte, maxSegment))); err != nil {
			break // session may already have torn down the conn
		}
	}
	select {
	case <-session.Done():
		if err := session.Err(); err == nil || !strings.Contains(err.Error(), "receive window overrun") {
			t.Errorf("session ended with %v, want a receive window overrun", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window overrun tolerated")
	}
}

// TestUnknownFrameTypeKillsSession also covers 0x13 and 0x14, the
// unsequenced DATA/FIN of older builds: a peer still sending them ends
// the session rather than having its data mistaken for anything else.
func TestUnknownFrameTypeKillsSession(t *testing.T) {
	for _, typ := range []byte{0x7F, 0x13, 0x14} {
		t.Run(fmt.Sprintf("%#x", typ), func(t *testing.T) {
			session, raw := rawPeer(t)
			w := wire.NewWriter(raw)
			if err := w.WriteFrame(typ, wire.AppendUint32(nil, 9)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-session.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("frame type %#x tolerated", typ)
			}
		})
	}
}

func TestShortFrameKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	// A DATAQ frame with a 2-byte payload cannot carry a stream id.
	if err := w.WriteFrame(frameDATAQ, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-session.Done():
		if err := session.Err(); err == nil || !strings.Contains(err.Error(), "short frame") {
			t.Errorf("session ended with %v, want a short frame violation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("short frame tolerated")
	}
}

func TestDuplicateSYNKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	syn := wire.AppendUint32(nil, 5)
	if err := w.WriteFrame(0x10, syn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := session.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0x10, syn); err != nil {
		t.Fatal(err)
	}
	select {
	case <-session.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate SYN tolerated")
	}
}

func TestMaxStreamsEnforced(t *testing.T) {
	client, server := pair(t, Config{MaxStreams: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		for {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			// Drain until the client half-closes, then release the
			// server-side slot too.
			go func() {
				_, _ = io.Copy(io.Discard, st)
				_ = st.Close()
			}()
		}
	}()
	var streams []*Stream
	for i := 0; i < 3; i++ {
		st, err := client.Open(ctx, nil)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		streams = append(streams, st)
	}
	if _, err := client.Open(ctx, nil); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("fourth open = %v, want ErrTooManyStreams", err)
	}
	// Closing a stream frees a slot on both sides (the server may lag
	// by one FIN round trip).
	_ = streams[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		// Open does not wait for the SYNACK; the Ping's PONG follows the
		// server's verdict on the SYN, so after it a refusal has landed
		// and the first Write reports it.
		var st *Stream
		if st, lastErr = client.Open(ctx, nil); lastErr == nil {
			if lastErr = client.Ping(ctx); lastErr == nil {
				if _, lastErr = st.Write([]byte{1}); lastErr == nil {
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("open after close: %v", lastErr)
	}
	if n := client.NumStreams(); n != 3 {
		t.Errorf("NumStreams = %d", n)
	}
}
