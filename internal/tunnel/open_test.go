package tunnel

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/wire"
)

// readFrameOfType reads the next frame from r and fails unless it has
// type want.
func readFrameOfType(t *testing.T, r *wire.Reader, want byte) wire.Frame {
	t.Helper()
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if f.Type != want {
		t.Fatalf("frame type %#x, want %#x", f.Type, want)
	}
	return f
}

// TestOpenReturnsBeforeSYNACK opens a stream to a raw peer that never
// answers the SYN: Open and the first Write must complete anyway, with
// the data (DATAQ, then FINQ on Close) right behind the SYN on the wire. A SYNACK arriving after the
// stream closed is ignored, and the session stays up.
func TestOpenReturnsBeforeSYNACK(t *testing.T) {
	session, raw := rawPeer(t)
	r := wire.NewReader(raw)
	w := wire.NewWriter(raw)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	st, err := session.Open(ctx, []byte("meta"))
	if err != nil {
		t.Fatalf("Open without SYNACK: %v", err)
	}
	msg := []byte("first bytes ride behind the SYN")
	if _, err := st.Write(msg); err != nil {
		t.Fatalf("Write before SYNACK: %v", err)
	}

	syn := readFrameOfType(t, r, frameSYN)
	b := wire.NewBuffer(syn.Payload)
	if id := b.Uint32(); id != st.ID() || string(syn.Payload[4:]) != "meta" {
		t.Fatalf("SYN = %x, want stream %d with meta", syn.Payload, st.ID())
	}
	data := readFrameOfType(t, r, frameDATAQ)
	b = wire.NewBuffer(data.Payload)
	if id, seq := b.Uint32(), b.Uint64(); id != st.ID() || seq != 0 || !bytes.Equal(data.Payload[12:], msg) {
		t.Fatalf("DATAQ = stream %d seq %d %q, want stream %d seq 0 %q", id, seq, data.Payload[12:], st.ID(), msg)
	}

	if err := st.Close(); err != nil {
		t.Fatalf("Close before SYNACK: %v", err)
	}
	fin := readFrameOfType(t, r, frameFINQ)
	b = wire.NewBuffer(fin.Payload)
	if id, seq := b.Uint32(), b.Uint64(); id != st.ID() || seq != 1 {
		t.Fatalf("FINQ = stream %d seq %d, want stream %d seq 1", id, seq, st.ID())
	}
	// A late SYNACK for the closed stream, then a PING: the PONG proves
	// the session dispatched the SYNACK and is still alive.
	if err := w.WriteControl(frameSYNACK, wire.AppendUint32(nil, st.ID())); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteControl(framePING, wire.AppendUint64(nil, 7)); err != nil {
		t.Fatal(err)
	}
	pong := readFrameOfType(t, r, framePONG)
	if n := wire.NewBuffer(pong.Payload).Uint64(); n != 7 {
		t.Fatalf("PONG nonce %d, want 7", n)
	}
	select {
	case <-session.Done():
		t.Fatalf("session died on a late SYNACK: %v", session.Err())
	default:
	}
}

// TestRSTRefusesOnEveryOperation has a raw peer refuse a stream after its
// Open returned: Read, Write and Close all report ErrStreamRefused.
func TestRSTRefusesOnEveryOperation(t *testing.T) {
	session, raw := rawPeer(t)
	r := wire.NewReader(raw)
	w := wire.NewWriter(raw)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	st, err := session.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	readFrameOfType(t, r, frameSYN)
	if err := w.WriteControl(frameRST, wire.AppendUint32(nil, st.ID())); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(make([]byte, 1)); !errors.Is(err, ErrStreamRefused) {
		t.Errorf("Read = %v, want ErrStreamRefused", err)
	}
	if _, err := st.Write([]byte("x")); !errors.Is(err, ErrStreamRefused) {
		t.Errorf("Write = %v, want ErrStreamRefused", err)
	}
	if err := st.Close(); !errors.Is(err, ErrStreamRefused) {
		t.Errorf("Close = %v, want ErrStreamRefused", err)
	}
	if n := session.NumStreams(); n != 0 {
		t.Errorf("NumStreams = %d after refusal, want 0", n)
	}
}

// lagConn delivers each Write to the wrapped connection d after the
// Write returned, in order: a link whose latency the sender does not
// wait out, unlike the in-memory network's sender-side sleep.
type lagConn struct {
	net.Conn
	d    time.Duration
	q    chan lagged
	done chan struct{}
	once sync.Once
}

type lagged struct {
	at time.Time
	p  []byte
}

func newLagConn(c net.Conn, d time.Duration) *lagConn {
	l := &lagConn{Conn: c, d: d, q: make(chan lagged, 4096), done: make(chan struct{})}
	go func() {
		for {
			select {
			case m := <-l.q:
				time.Sleep(time.Until(m.at))
				if _, err := l.Conn.Write(m.p); err != nil {
					return
				}
			case <-l.done:
				return
			}
		}
	}()
	return l
}

func (l *lagConn) Write(p []byte) (int, error) {
	select {
	case l.q <- lagged{at: time.Now().Add(l.d), p: append([]byte(nil), p...)}:
		return len(p), nil
	case <-l.done:
		return 0, net.ErrClosed
	}
}

func (l *lagConn) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.Conn.Close()
}

// TestBondedWriteAfterOpenZeroLoss writes 8 MiB on a k=4 bond straight
// after Open. The primary lags 20 ms behind the other members, so the
// SYN reaches the peer long after anything sprayed at once would: the
// frames written before the SYNACK must stay behind the SYN on the
// primary, and the receiver must see every byte in order. Once the
// SYNACK is in, everything sprayed on the fast members parks behind the
// primary's lag; with 1 KiB writes that is thousands of frames, which
// reassembly must hold rather than treat as an attack.
func TestBondedWriteAfterOpenZeroLoss(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int
		cfg   Config
	}{
		{"one write", 8 << 20, Config{}},
		{"1KiB writes", 1 << 10, Config{}},
		{"1KiB writes 4MiB window", 1 << 10, Config{WindowMin: 4 << 20, WindowMax: 4 << 20}},
		{"1KiB writes adaptive 8-64MiB", 1 << 10, Config{WindowMin: 8 << 20, WindowMax: 64 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bondedWriteAfterOpen(t, tc.chunk, tc.cfg)
		})
	}
}

func bondedWriteAfterOpen(t *testing.T, chunk int, cfg Config) {
	client, server := bondedPair(t, 4, 200*time.Microsecond, cfg, func(i int, c net.Conn) net.Conn {
		if i == 0 {
			return newLagConn(c, 20*time.Millisecond)
		}
		return c
	})
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(12)).Read(data)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		var werr error
		for off := 0; off < len(data) && werr == nil; off += chunk {
			_, werr = st.Write(data[off:min(off+chunk, len(data))])
		}
		if werr == nil {
			werr = st.CloseWrite()
		}
		errCh <- werr
	}()
	peer, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A lost frame would stall reassembly for good; fail instead.
	_ = peer.SetReadDeadline(time.Now().Add(20 * time.Second))
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatalf("read after %d of %d bytes: %v", len(got), len(data), err)
	}
	if werr := <-errCh; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	if len(got) != len(data) || crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(data) {
		t.Fatalf("received %d bytes crc %08x, want %d bytes crc %08x",
			len(got), crc32.ChecksumIEEE(got), len(data), crc32.ChecksumIEEE(data))
	}
}

// openRawStream opens stream 1 from the raw side, waits for the session
// to accept it, and discards whatever the session sends back (BONDACKs
// for the DATAQ frames the test pushes would otherwise fill the link).
func openRawStream(t *testing.T, session *Session, raw net.Conn) *wire.Writer {
	t.Helper()
	w := wire.NewWriter(raw)
	if err := w.WriteControl(frameSYN, wire.AppendUint32(nil, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := session.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = io.Copy(io.Discard, raw) }()
	return w
}

// dataq encodes a DATAQ payload for stream 1.
func dataq(seq uint64, p []byte) []byte {
	b := wire.AppendUint32(nil, 1)
	b = wire.AppendUint64(b, seq)
	return append(b, p...)
}

// expectSessionFailsFast waits for the session to die with a recorded
// error.
func expectSessionFailsFast(t *testing.T, session *Session, what string) {
	t.Helper()
	select {
	case <-session.Done():
		if session.Err() == nil {
			t.Errorf("%s: session closed without recording the violation", what)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s tolerated", what)
	}
}

// TestEmptyFutureDATAQKillsSession pushes 20 000 empty DATAQ frames ahead
// of the stream's next sequence. They cost no window credit, so nothing
// but an explicit rule keeps them from parking without limit: the first
// one must end the session.
func TestEmptyFutureDATAQKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := openRawStream(t, session, raw)
	go func() {
		for seq := uint64(1); seq <= 20000; seq++ {
			if err := w.WriteFrame(frameDATAQ, dataq(seq, nil)); err != nil {
				return // the session tore the connection down
			}
		}
	}()
	expectSessionFailsFast(t, session, "empty DATAQ flood")
}

// TestDATAQBeyondCreditKillsSession sends one data byte at a sequence
// further ahead than the stream's outstanding credit allows: an honest
// sender cannot have that many unacknowledged frames in flight.
func TestDATAQBeyondCreditKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := openRawStream(t, session, raw)
	if err := w.WriteFrame(frameDATAQ, dataq(DefaultWindow+1, []byte{1})); err != nil {
		t.Fatal(err)
	}
	expectSessionFailsFast(t, session, "DATAQ beyond the window")
}

// TestReorderParkingBoundedByCredit first spends all but 8 KiB of the
// stream's initial credit in order, unread, then parks one-byte frames at
// every sequence the remaining credit leaves room for while the next
// in-order frame is missing: that is as far as an honest sender can get
// ahead, so the session must hold all of them, each in a buffer of its
// own size rather than a 64 KiB lease, and deliver them in order once the
// missing frame arrives.
func TestReorderParkingBoundedByCredit(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	if err := w.WriteControl(frameSYN, wire.AppendUint32(nil, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := session.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pong := make(chan struct{}, 1)
	go func() {
		r := wire.NewReader(raw)
		for {
			f, err := r.ReadFrame()
			if err != nil {
				return
			}
			if f.Type == framePONG {
				pong <- struct{}{}
			}
		}
	}()
	const credit = 8 << 10
	want := make([]byte, DefaultWindow)
	prefix, tail := want[:DefaultWindow-credit], want[DefaultWindow-credit:]
	// Encode the frames into one buffer and send it in one write.
	var flood bytes.Buffer
	fw := wire.NewWriter(&flood)
	var base uint64 // the sequence of tail[0]
	for off := 0; off < len(prefix); off += maxSegment {
		seg := prefix[off:min(off+maxSegment, len(prefix))]
		for i := range seg {
			seg[i] = byte(off + i)
		}
		if err := fw.WriteFrame(frameDATAQ, dataq(base, seg)); err != nil {
			t.Fatal(err)
		}
		base++
	}
	for i := credit - 1; i >= 1; i-- {
		tail[i] = byte(i)
		if err := fw.WriteFrame(frameDATAQ, dataq(base+uint64(i), tail[i:i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(flood.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The session answers the PING after every frame written before it.
	if err := w.WriteControl(framePING, wire.AppendUint64(nil, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pong:
	case <-session.Done():
		t.Fatalf("session died with %d frames parked within credit: %v", credit-1, session.Err())
	case <-ctx.Done():
		t.Fatal("no PONG")
	}
	st.recvMu.Lock()
	parked, pinned := len(st.ooo), 0
	for _, f := range st.ooo {
		pinned += cap(f.buf)
	}
	st.recvMu.Unlock()
	if parked != credit-1 || pinned > 2*parked {
		t.Fatalf("%d frames parked in %d bytes of buffers, want %d in at most %d",
			parked, pinned, credit-1, 2*(credit-1))
	}
	tail[0] = 0xff
	if err := w.WriteFrame(frameDATAQ, dataq(base, tail[:1])); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	_ = st.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parked frames delivered out of order")
	}
}
