package main

import (
	"context"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/transport"
)

// delayNet is the benchmark's WAN delay line. It wraps the dial side of
// a network: bytes the dialer writes reach the wire delay later, and
// bytes the peer sends reach the dialer's reads delay later, so each
// direction of a connection is delayed exactly once however the two
// proxies pair up. Unlike a stop-and-wait link, many writes are in
// flight at once, up to budget bytes per direction, the way a TCP path
// with a large enough window behaves.
type delayNet struct {
	inner  transport.Network
	delay  time.Duration
	budget int
	late   *lateLog
}

// Listen implements transport.Network; accepted connections are not
// delayed (their dialer's side already is).
func (n *delayNet) Listen(addr string) (net.Listener, error) { return n.inner.Listen(addr) }

// Dial implements transport.Network.
func (n *delayNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newDelayConn(conn, n.delay, n.budget, n.late), nil
}

// lateLog records how late the delay line delivered segments, in
// microseconds, counting only deliveries something was waiting for.
type lateLog struct {
	mu sync.Mutex
	us []float64
}

// maxLate bounds the lateness samples kept.
const maxLate = 1 << 20

func newLateLog() *lateLog { return &lateLog{} }

func (l *lateLog) add(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.us) < maxLate {
		l.us = append(l.us, float64(d)/float64(time.Microsecond))
	}
	l.mu.Unlock()
}

// reset drops every sample, so a run counts only its measured window.
func (l *lateLog) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.us = l.us[:0]
	l.mu.Unlock()
}

// quantile returns the q-quantile of the recorded lateness (0 if none).
func (l *lateLog) quantile(q float64) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	s := append([]float64(nil), l.us...)
	l.mu.Unlock()
	sort.Float64s(s)
	return quantileSorted(s, q)
}

type segment struct {
	b   []byte
	due time.Time
}

// delayConn is one delayed connection. A reader goroutine stamps each
// arrival and holds it until due; a sender goroutine writes each queued
// write once due. Both stop when the connection closes, and Close waits
// for them.
type delayConn struct {
	net.Conn
	delay  time.Duration
	budget int
	late   *lateLog

	mu       sync.Mutex
	changed  chan struct{} // closed and replaced on every state change
	out      []segment
	outBytes int
	werr     error
	in       []segment
	inBytes  int
	rerr     error
	closed   bool
	rdl, wdl time.Time

	kill     chan struct{} // closed when pending writes are abandoned
	sendDone chan struct{}
	readDone chan struct{}
}

func newDelayConn(conn net.Conn, delay time.Duration, budget int, late *lateLog) *delayConn {
	c := &delayConn{
		Conn:     conn,
		delay:    delay,
		budget:   budget,
		late:     late,
		changed:  make(chan struct{}),
		kill:     make(chan struct{}),
		sendDone: make(chan struct{}),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	go c.writeLoop()
	return c
}

func (c *delayConn) notifyLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// waitLocked releases the lock until the state changes, until (if set)
// passes, or deadline (if set) passes; it returns os.ErrDeadlineExceeded
// in the last case. The lock is held again on return.
func (c *delayConn) waitLocked(until, deadline time.Time) error {
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return os.ErrDeadlineExceeded
	}
	ch := c.changed
	c.mu.Unlock()
	defer c.mu.Lock()
	var untilC, deadlineC <-chan time.Time
	if !until.IsZero() {
		t := time.NewTimer(time.Until(until))
		defer t.Stop()
		untilC = t.C
	}
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-ch:
	case <-untilC:
	case <-deadlineC:
		return os.ErrDeadlineExceeded
	}
	return nil
}

func (c *delayConn) readLoop() {
	defer close(c.readDone)
	scratch := make([]byte, 64<<10)
	for {
		n, err := c.Conn.Read(scratch)
		now := time.Now()
		c.mu.Lock()
		if n > 0 {
			b := make([]byte, n)
			copy(b, scratch[:n])
			c.in = append(c.in, segment{b: b, due: now.Add(c.delay)})
			c.inBytes += n
			c.notifyLocked()
		}
		if err != nil {
			c.rerr = err
			c.notifyLocked()
			c.mu.Unlock()
			return
		}
		for c.inBytes >= c.budget && !c.closed {
			_ = c.waitLocked(time.Time{}, time.Time{})
		}
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
	}
}

// Read implements net.Conn: it returns bytes only once they are due.
func (c *delayConn) Read(p []byte) (int, error) {
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return 0, net.ErrClosed
		}
		if len(c.in) > 0 {
			seg := &c.in[0]
			now := time.Now()
			if !now.Before(seg.due) {
				if start.Before(seg.due) {
					c.late.add(now.Sub(seg.due))
					start = now // one sample per waited-for segment
				}
				n := copy(p, seg.b)
				seg.b = seg.b[n:]
				c.inBytes -= n
				if len(seg.b) == 0 {
					c.in = c.in[1:]
				}
				c.notifyLocked()
				return n, nil
			}
			if err := c.waitLocked(seg.due, c.rdl); err != nil {
				return 0, err
			}
			continue
		}
		if c.rerr != nil {
			return 0, c.rerr
		}
		if err := c.waitLocked(time.Time{}, c.rdl); err != nil {
			return 0, err
		}
	}
}

// Write implements net.Conn: it queues a copy of p and returns at once
// unless budget bytes are already in flight.
func (c *delayConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return 0, net.ErrClosed
		}
		if c.werr != nil {
			return 0, c.werr
		}
		if c.outBytes == 0 || c.outBytes+len(p) <= c.budget {
			break
		}
		if err := c.waitLocked(time.Time{}, c.wdl); err != nil {
			return 0, err
		}
	}
	b := make([]byte, len(p))
	copy(b, p)
	c.out = append(c.out, segment{b: b, due: time.Now().Add(c.delay)})
	c.outBytes += len(p)
	c.notifyLocked()
	return len(p), nil
}

func (c *delayConn) writeLoop() {
	defer close(c.sendDone)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.out) == 0 && !c.closed {
			_ = c.waitLocked(time.Time{}, time.Time{})
		}
		if len(c.out) == 0 {
			return // closed and drained
		}
		if due := c.out[0].due; time.Now().Before(due) {
			c.mu.Unlock()
			t := time.NewTimer(time.Until(due))
			select {
			case <-t.C:
				c.late.add(time.Since(due))
			case <-c.kill:
				t.Stop()
				c.mu.Lock()
				return
			}
			c.mu.Lock()
		}
		now := time.Now()
		var bufs net.Buffers
		total := 0
		k := 0
		for k < len(c.out) && !now.Before(c.out[k].due) {
			bufs = append(bufs, c.out[k].b)
			total += len(c.out[k].b)
			k++
		}
		c.mu.Unlock()
		_, err := bufs.WriteTo(c.Conn)
		c.mu.Lock()
		c.out = c.out[k:]
		c.outBytes -= total
		if err != nil {
			c.werr = err
			c.out, c.outBytes = nil, 0
		}
		c.notifyLocked()
		if err != nil {
			return
		}
	}
}

// Close lets writes made before Close reach the wire, as a kernel socket
// would, for at most the delay plus a second; then it closes the
// connection and waits for both goroutines.
func (c *delayConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return net.ErrClosed
	}
	c.closed = true
	c.notifyLocked()
	c.mu.Unlock()
	t := time.NewTimer(c.delay + time.Second)
	select {
	case <-c.sendDone:
	case <-t.C:
	}
	t.Stop()
	close(c.kill)
	err := c.Conn.Close()
	<-c.sendDone
	<-c.readDone
	return err
}

// SetDeadline implements net.Conn.
func (c *delayConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl, c.wdl = t, t
	c.notifyLocked()
	c.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *delayConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	c.notifyLocked()
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *delayConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	c.notifyLocked()
	c.mu.Unlock()
	return nil
}
