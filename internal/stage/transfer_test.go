package stage

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/metrics"
)

// pipeDialer returns a Dialer whose every connection is the client end
// of a net.Pipe served from src. wrap, if non-nil, wraps the server end
// (fault injection).
func pipeDialer(src *Store, serveCfg Config, reg *metrics.Registry, wrap func(net.Conn) net.Conn) Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		cfg := serveCfg
		cfg.WrapConn = wrap
		go Serve(server, src, cfg, reg)
		return client, nil
	}
}

func randBlob(t *testing.T, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	rnd := rand.New(rand.NewSource(int64(n)))
	rnd.Read(data)
	return data
}

func TestPullStriped(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 1<<20)
	ref := src.Put(data)

	cfg := Config{ChunkSize: 32 << 10, Stripes: 4, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, reg, nil)
	if err := Pull(context.Background(), dial, ref.Hash, ref.Size, dst, cfg, reg); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source")
	}
	if n := reg.Counter(metrics.StageBytesReceived).Value(); n != int64(len(data)) {
		t.Fatalf("bytes received = %d, want %d", n, len(data))
	}
	if reg.Counter(metrics.StagePulls).Value() != 1 {
		t.Fatal("pull not counted")
	}
}

// TestPullMissingBlob asks for a blob the source does not hold: every
// stripe dials once and the pull fails with ErrNotFound, with no redial
// loop spending the retry budget on an answer that cannot change.
func TestPullMissingBlob(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	cfg := Config{ChunkSize: 16 << 10, Stripes: 4, IdleTimeout: time.Second, PullRetries: 8}
	var dials atomic.Int32
	dial := pipeDialer(src, cfg, nil, func(conn net.Conn) net.Conn {
		dials.Add(1)
		return conn
	})
	err := Pull(context.Background(), dial, Hash([]byte("nope")), 1<<20, dst, cfg, nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if n := dials.Load(); n > 4 {
		t.Fatalf("%d dials for a missing blob over 4 stripes; want at most one each", n)
	}
}

// TestPullSizeMismatch pulls with a ref whose size disagrees with the
// source's copy, larger and smaller: the get header exposes it and the
// pull fails with ErrSizeMismatch instead of storing anything.
func TestPullSizeMismatch(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	data := randBlob(t, 256<<10)
	ref := src.Put(data)
	cfg := Config{ChunkSize: 16 << 10, Stripes: 4, IdleTimeout: time.Second}
	dial := pipeDialer(src, cfg, nil, nil)
	for _, size := range []int64{ref.Size - 1, ref.Size + 1} {
		dst, _ := NewStore(Config{}, nil)
		err := Pull(context.Background(), dial, ref.Hash, size, dst, cfg, nil)
		if !errors.Is(err, ErrSizeMismatch) {
			t.Fatalf("size %d: want ErrSizeMismatch, got %v", size, err)
		}
		if dst.Has(ref.Hash) {
			t.Fatalf("size %d: mismatched pull stored the blob", size)
		}
	}
}

// TestPullRefWithoutSize pulls with refs that carry no size, as an origin
// from before refs did forwards them: Pull asks the source for the size,
// fetches the blob, and still fails fast on a blob the source lacks. The
// empty blob needs no question at all.
func TestPullRefWithoutSize(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	data := randBlob(t, 100<<10)
	ref := src.Put(data)
	cfg := Config{ChunkSize: 16 << 10, Stripes: 4, IdleTimeout: time.Second, PullRetries: 8}
	var dials atomic.Int32
	dial := pipeDialer(src, cfg, nil, func(conn net.Conn) net.Conn {
		dials.Add(1)
		return conn
	})
	dst, _ := NewStore(Config{}, nil)
	if err := Pull(context.Background(), dial, ref.Hash, 0, dst, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := dst.Get(ref.Hash); !ok || !bytes.Equal(got, data) {
		t.Fatal("blob pulled by an unsized ref differs from the source")
	}
	dials.Store(0)
	err := Pull(context.Background(), dial, Hash([]byte("nope")), 0, dst, cfg, nil)
	if !errors.Is(err, ErrNotFound) || dials.Load() != 1 {
		t.Fatalf("missing unsized blob: err %v after %d dials, want ErrNotFound after 1", err, dials.Load())
	}
	dials.Store(0)
	if err := Pull(context.Background(), dial, Hash(nil), 0, dst, cfg, nil); err != nil || dials.Load() != 0 {
		t.Fatalf("empty blob: err %v after %d dials, want none", err, dials.Load())
	}
}

// TestServeAnswersStat is the contract with pullers that stat before
// every pull, as every puller did before refs carried sizes: Serve must
// keep answering them.
func TestServeAnswersStat(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	ref := src.Put(randBlob(t, 4<<10))
	cfg := Config{IdleTimeout: time.Second}
	conn, err := pipeDialer(src, cfg, nil, nil)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if size, ok, err := statOn(conn, ref.Hash, cfg); err != nil || !ok || size != ref.Size {
		t.Fatalf("stat held blob = %d, %v, %v; want %d, true, nil", size, ok, err, ref.Size)
	}
	if _, ok, err := statOn(conn, Hash([]byte("nope")), cfg); err != nil || ok {
		t.Fatalf("stat missing blob = %v, %v; want false, nil", ok, err)
	}
}

func TestPullRetriesCorruptChunk(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 256<<10)
	ref := src.Put(data)

	var corr failure.Corrupter
	corr.Arm(2)
	cfg := Config{ChunkSize: 16 << 10, Stripes: 2, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, reg, corr.Wrap)
	if err := Pull(context.Background(), dial, ref.Hash, ref.Size, dst, cfg, reg); err != nil {
		t.Fatalf("pull should survive corrupt chunks: %v", err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source after corruption recovery")
	}
	if n := reg.Counter(metrics.StageCorruptChunks).Value(); n < 1 {
		t.Fatalf("corrupt chunks = %d, want >= 1", n)
	}
	if n := reg.Counter(metrics.StageChunkRetries).Value(); n < 1 {
		t.Fatalf("chunk retries = %d, want >= 1", n)
	}
}

// cutConn severs the connection after a write budget is spent,
// simulating a link drop mid-transfer.
type cutConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.budget -= len(p)
	dead := c.budget < 0
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		return 0, errors.New("injected link drop")
	}
	return c.Conn.Write(p)
}

func TestPullResumesAfterLinkDrop(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 512<<10)
	ref := src.Put(data)

	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 2 * time.Second}
	var dials int
	var mu sync.Mutex
	dial := pipeDialer(src, cfg, reg, func(conn net.Conn) net.Conn {
		mu.Lock()
		dials++
		first := dials == 1
		mu.Unlock()
		if first {
			// First connection dies halfway through the blob.
			return &cutConn{Conn: conn, budget: len(data) / 2}
		}
		return conn
	})
	if err := Pull(context.Background(), dial, ref.Hash, ref.Size, dst, cfg, reg); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source after resume")
	}
	if n := reg.Counter(metrics.StageResumes).Value(); n < 1 {
		t.Fatalf("resumes = %d, want >= 1", n)
	}
	// A resume continues from the recorded offset: total verified bytes
	// stay exactly one blob, not blob + restarted prefix.
	if n := reg.Counter(metrics.StageBytesReceived).Value(); n != int64(len(data)) {
		t.Fatalf("bytes received = %d, want %d (resume must not restart from 0)", n, len(data))
	}
}

func TestPullIdleDeadlineUnsticksStalledPeer(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	data := randBlob(t, 64<<10)
	ref := src.Put(data)

	var stall failure.StallStream
	stall.Stall()
	defer stall.Heal()
	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 150 * time.Millisecond, PullRetries: 1}
	dial := pipeDialer(src, cfg, reg, stall.Wrap)
	start := time.Now()
	err := Pull(context.Background(), dial, ref.Hash, ref.Size, dst, cfg, reg)
	if err == nil {
		t.Fatal("pull against a permanently stalled peer must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled peer pinned the transfer for %v", elapsed)
	}
}

func TestPullRecoversAfterStallHeals(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 64<<10)
	ref := src.Put(data)

	var stall failure.StallStream
	stall.Stall()
	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 100 * time.Millisecond, PullRetries: 50}
	dial := pipeDialer(src, cfg, reg, stall.Wrap)
	go func() {
		time.Sleep(300 * time.Millisecond)
		stall.Heal()
	}()
	if err := Pull(context.Background(), dial, ref.Hash, ref.Size, dst, cfg, reg); err != nil {
		t.Fatalf("pull should succeed once the stall heals: %v", err)
	}
	if got, ok := dst.Get(ref.Hash); !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source after stall heals")
	}
}

func TestStripeRanges(t *testing.T) {
	cases := []struct {
		size, chunk int64
		stripes     int
		want        int
	}{
		{100, 64, 4, 2}, // only two chunks of data: two stripes
		{10, 64, 4, 1},  // sub-chunk blob: one stripe
		{1 << 20, 1 << 16, 4, 4},
	}
	for _, c := range cases {
		got := stripeRanges(c.size, c.chunk, c.stripes)
		if len(got) != c.want {
			t.Fatalf("stripeRanges(%d,%d,%d) = %d ranges, want %d", c.size, c.chunk, c.stripes, len(got), c.want)
		}
		var covered int64
		prev := int64(0)
		for _, sp := range got {
			if sp.off != prev || sp.end < sp.off {
				t.Fatalf("ranges not contiguous: %+v", got)
			}
			covered += sp.end - sp.off
			prev = sp.end
		}
		if covered != c.size {
			t.Fatalf("ranges cover %d bytes, want %d", covered, c.size)
		}
	}
}
