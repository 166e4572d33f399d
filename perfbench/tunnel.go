package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/grid"
	"gridproxy/internal/transport"
)

const (
	tunnelApp = "perfbench-tunnel"
	echoSize  = 64
	// Bulk frames carry a seeded size between these bounds.
	minFrame = 16 << 10
	maxFrame = 256 << 10
	// patternSize is the seeded byte pattern bulk frames are cut from.
	patternSize = 1 << 20
	mib         = 1 << 20
	// bulkUnit is the amount of bulk the flow is timed over. Over 16 MiB
	// (about 50 ms) the time reflects the tunnel's throughput; per MiB
	// it mostly reflects how long the host's scheduler stalled the
	// process.
	bulkUnit = 16 * mib
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tunnelRunner drives the tunnel workload: one grid.Client at site A
// opens two splice connections to sinks inside site B. One carries a
// bulk flow; the other runs a closed-loop 64-byte echo while it flows.
type tunnelRunner struct {
	seed   int64
	client *grid.Client
	bulk   net.Conn
	echo   net.Conn
	sinks  *sinks
	openMs []float64
}

func startTunnel(ctx context.Context, g *benchGrid, seed int64) (runner, error) {
	a, b := g.sites[0], g.sites[1]
	if err := b.proxy.RegisterTunnelApp(userName(0), tunnelApp); err != nil {
		return nil, err
	}
	s, err := startSinks(b.lan)
	if err != nil {
		return nil, err
	}
	r := &tunnelRunner{seed: seed, sinks: s}
	fail := func(err error) (runner, error) {
		r.close()
		return nil, err
	}
	if r.client, err = grid.Dial(ctx, a.lan, a.proxy.LocalAddr()); err != nil {
		return fail(err)
	}
	if err := r.client.Login(ctx, userName(0), userPassword(0)); err != nil {
		return fail(err)
	}
	open := func(target string) (net.Conn, error) {
		start := time.Now()
		conn, err := r.client.Tunnel(ctx, core.SpliceAddr(a.proxy.LocalAddr()), tunnelApp, b.name, target)
		r.openMs = append(r.openMs, float64(time.Since(start))/1e6)
		return conn, err
	}
	if r.bulk, err = open("bulk-sink"); err != nil {
		return fail(err)
	}
	if r.echo, err = open("echo-sink"); err != nil {
		return fail(err)
	}
	return r, nil
}

func (r *tunnelRunner) close() {
	if r.bulk != nil {
		_ = r.bulk.Close()
	}
	if r.echo != nil {
		_ = r.echo.Close()
	}
	if r.client != nil {
		_ = r.client.Close()
	}
	r.sinks.close()
}

// transfer is what the bulk sink saw of one framed transfer.
type transfer struct {
	bytes int64
	crc   uint32
	// unitAt stamps each bulkUnit boundary the sink crossed.
	unitAt []time.Time
	first  time.Time
	last   time.Time
	err    error
}

// sinks are the two services inside site B the tunnels reach. They are
// not part of the grid: the proxies splice to them like to any legacy
// endpoint.
type sinks struct {
	lns       []net.Listener
	wg        sync.WaitGroup
	mu        sync.Mutex
	conns     []net.Conn
	transfers chan transfer
}

func startSinks(lan transport.Network) (*sinks, error) {
	s := &sinks{transfers: make(chan transfer, 16)} // a run makes two transfers
	for _, spec := range []struct {
		label string
		serve func(net.Conn)
	}{{"bulk-sink", s.serveBulk}, {"echo-sink", serveEcho}} {
		ln, err := lan.Listen(spec.label)
		if err != nil {
			s.close()
			return nil, err
		}
		s.lns = append(s.lns, ln)
		serve := spec.serve
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				s.mu.Lock()
				s.conns = append(s.conns, conn)
				s.mu.Unlock()
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					defer conn.Close()
					serve(conn)
				}()
			}
		}()
	}
	return s, nil
}

func (s *sinks) close() {
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveBulk reads framed transfers: a 4-byte length, then that many
// bytes, until a zero length. It answers each with the byte count and
// CRC32C it saw.
func (s *sinks) serveBulk(conn net.Conn) {
	buf := make([]byte, maxFrame)
	var hdr [4]byte
	for {
		t := transfer{}
		next := int64(bulkUnit)
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					s.transfers <- transfer{err: err}
				}
				return
			}
			n := int(binary.BigEndian.Uint32(hdr[:]))
			if n == 0 {
				break
			}
			if n > len(buf) {
				s.transfers <- transfer{err: fmt.Errorf("%w: frame of %d bytes", errCheck, n)}
				return
			}
			if _, err := io.ReadFull(conn, buf[:n]); err != nil {
				s.transfers <- transfer{err: err}
				return
			}
			now := time.Now()
			if t.bytes == 0 {
				t.first = now
			}
			t.last = now
			t.crc = crc32.Update(t.crc, castagnoli, buf[:n])
			t.bytes += int64(n)
			for t.bytes >= next {
				t.unitAt = append(t.unitAt, now)
				next += bulkUnit
			}
		}
		var ack [12]byte
		binary.BigEndian.PutUint64(ack[:8], uint64(t.bytes))
		binary.BigEndian.PutUint32(ack[8:], t.crc)
		s.transfers <- t
		if _, err := conn.Write(ack[:]); err != nil {
			return
		}
	}
}

// serveEcho writes back whatever it reads.
func serveEcho(conn net.Conn) {
	_, _ = io.Copy(conn, conn)
}

// sendBulk sends framed, seeded data until stop closes (or limit bytes
// are sent, if limit > 0), then the terminator, and checks the sink's
// count and CRC32C against what was sent.
func (r *tunnelRunner) sendBulk(rng *rand.Rand, pattern []byte, stop <-chan struct{}, limit int64) (transfer, error) {
	frame := make([]byte, 4+maxFrame)
	var sent int64
	var crc uint32
	off := 0
	for (limit <= 0 || sent < limit) && !isClosed(stop) {
		n := minFrame + rng.IntN(maxFrame-minFrame+1)
		for i := 0; i < n; {
			k := copy(frame[4+i:4+n], pattern[off:])
			i += k
			off = (off + k) % len(pattern)
		}
		binary.BigEndian.PutUint32(frame[:4], uint32(n))
		if _, err := r.bulk.Write(frame[:4+n]); err != nil {
			return transfer{}, fmt.Errorf("bulk write: %w", err)
		}
		crc = crc32.Update(crc, castagnoli, frame[4:4+n])
		sent += int64(n)
	}
	if _, err := r.bulk.Write([]byte{0, 0, 0, 0}); err != nil {
		return transfer{}, fmt.Errorf("bulk write: %w", err)
	}
	var ack [12]byte
	if _, err := io.ReadFull(r.bulk, ack[:]); err != nil {
		return transfer{}, fmt.Errorf("bulk ack: %w", err)
	}
	t := <-r.sinks.transfers
	if t.err != nil {
		return t, t.err
	}
	return t, checkBulk(sent, crc, int64(binary.BigEndian.Uint64(ack[:8])), binary.BigEndian.Uint32(ack[8:]))
}

// isClosed reports whether ch is closed; a nil channel never is.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// echoOnce sends one seeded message and checks it comes back unchanged.
func (r *tunnelRunner) echoOnce(rng *rand.Rand, msg, got []byte) error {
	for i := 0; i < len(msg); i += 8 {
		binary.LittleEndian.PutUint64(msg[i:], rng.Uint64())
	}
	if _, err := r.echo.Write(msg); err != nil {
		return fmt.Errorf("echo write: %w", err)
	}
	if _, err := io.ReadFull(r.echo, got); err != nil {
		return fmt.Errorf("echo read: %w", err)
	}
	return checkEcho(msg, got)
}

func seededPattern(rng *rand.Rand) []byte {
	p := make([]byte, patternSize)
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
	return p
}

// deadline bounds both tunnels' I/O, so a stalled tunnel fails the run
// instead of hanging it.
func (r *tunnelRunner) deadline(d time.Duration) {
	limit := time.Now().Add(d)
	_ = r.bulk.SetDeadline(limit)
	_ = r.echo.SetDeadline(limit)
}

func (r *tunnelRunner) warmup(ctx context.Context) error {
	r.deadline(time.Minute)
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x7761726d))
	msg, got := make([]byte, echoSize), make([]byte, echoSize)
	for i := 0; i < 200; i++ {
		if err := r.echoOnce(rng, msg, got); err != nil {
			return err
		}
	}
	_, err := r.sendBulk(rng, seededPattern(rng), nil, 32*mib)
	return err
}

func (r *tunnelRunner) run(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x74756e6c))
	pattern := seededPattern(rng)
	echoRng := rand.New(rand.NewPCG(uint64(r.seed), 0x6563686f))

	stop := make(chan struct{})
	timer := time.AfterFunc(d, func() { close(stop) })
	defer timer.Stop()
	r.deadline(d + time.Minute)

	out := &outcome{extra: map[string]float64{}, reqQuantile: 0.9}
	var echoErr error
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		msg, got := make([]byte, echoSize), make([]byte, echoSize)
		for op := int64(1); !isClosed(stop); op++ {
			start := time.Now()
			err := r.echoOnce(echoRng, msg, got)
			end := time.Now()
			out.attempted++
			if err != nil {
				out.failed++
				if !errors.Is(err, errCheck) {
					echoErr = err
					return
				}
				continue
			}
			tr.record("bench.echo", op, "", start, end)
			out.req = append(out.req, float64(end.Sub(start))/1e6)
		}
	}()

	start := time.Now()
	t, bulkErr := r.sendBulk(rng, pattern, stop, 0)
	tr.record("bench.bulk", 0, "", start, time.Now())
	<-echoDone
	out.attempted++
	if bulkErr != nil {
		if !errors.Is(bulkErr, errCheck) {
			return nil, bulkErr
		}
		out.failed++
		fmt.Printf("perfbench: tunnel: %v\n", bulkErr)
	}
	if echoErr != nil {
		return nil, echoErr
	}
	for i := 1; i < len(t.unitAt); i++ {
		out.work = append(out.work, float64(t.unitAt[i].Sub(t.unitAt[i-1]))/1e6/(bulkUnit/mib))
	}
	out.ops = float64(t.bytes) / mib
	if span := t.last.Sub(t.first).Seconds(); span > 0 {
		out.extra["bulk_MBps"] = float64(t.bytes) / 1e6 / span
	}
	out.extra["grid.tunnel_open_ms"] = median(r.openMs)
	return out, nil
}
