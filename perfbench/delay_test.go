package main

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sort"
	"testing"
	"time"

	"gridproxy/internal/transport"
)

// listen starts a loopback TCP server running serve on each connection
// and stops it when the test ends.
func listen(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func dialDelayed(t *testing.T, addr string, delay time.Duration, budget int) *delayConn {
	t.Helper()
	n := &delayNet{inner: transport.TCP{}, delay: delay, budget: budget, late: newLateLog()}
	conn, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn.(*delayConn)
}

func TestDelayLineRoundTripIsTwiceTheDelay(t *testing.T) {
	const delay = 5 * time.Millisecond
	addr := listen(t, func(c net.Conn) { _, _ = io.Copy(c, c) })
	conn := dialDelayed(t, addr, delay, 1<<20)
	var rtts []time.Duration
	buf := make([]byte, 1)
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		rtts = append(rtts, time.Since(start))
		if buf[0] != byte(i) {
			t.Fatalf("echo %d came back as %d", i, buf[0])
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if med := rtts[len(rtts)/2]; med < 2*delay || med > 2*delay+4*time.Millisecond {
		t.Errorf("median RTT %v, want about %v", med, 2*delay)
	}
}

func TestDelayLinePipelinesWrites(t *testing.T) {
	const (
		delay  = 20 * time.Millisecond
		writes = 50
		size   = 1024
	)
	arrived := make(chan time.Time, 1)
	addr := listen(t, func(c net.Conn) {
		buf := make([]byte, writes*size)
		if _, err := io.ReadFull(c, buf); err == nil {
			arrived <- time.Now()
		}
	})
	conn := dialDelayed(t, addr, delay, 1<<20)
	msg := make([]byte, size)
	start := time.Now()
	for i := 0; i < writes; i++ {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > delay/2 {
		t.Errorf("%d writes took %v: the writer waited for the line", writes, took)
	}
	select {
	case at := <-arrived:
		// Stop-and-wait would need writes*delay; a pipelined line
		// delivers everything about one delay after the writes.
		if took := at.Sub(start); took > 3*delay {
			t.Errorf("last byte arrived after %v, want about %v", took, delay)
		}
	case <-time.After(writes * delay):
		t.Fatal("data never arrived")
	}
	if l := conn.late.quantile(0.99); l > float64(delay/time.Microsecond) {
		t.Errorf("line delivered %vus late", l)
	}
}

func TestDelayLineBudgetBlocksWriter(t *testing.T) {
	const delay = 20 * time.Millisecond
	addr := listen(t, func(c net.Conn) { _, _ = io.Copy(io.Discard, c) })
	conn := dialDelayed(t, addr, delay, 4096)
	msg := make([]byte, 4096)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	// With one budget in flight, each further write waits for the one
	// before it to leave the line.
	if took := time.Since(start); took < 2*delay {
		t.Errorf("3 budget-sized writes took %v, want at least %v", took, 2*delay)
	}
}

func TestDelayLineReadDeadline(t *testing.T) {
	addr := listen(t, func(c net.Conn) { _, _ = io.Copy(io.Discard, c) })
	conn := dialDelayed(t, addr, 5*time.Millisecond, 1<<20)
	if err := conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline returned %v", err)
	}
}
