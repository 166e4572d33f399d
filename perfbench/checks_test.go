package main

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"testing"

	"gridproxy/internal/grid"
	"gridproxy/internal/stage"
	"gridproxy/internal/transport"
)

// corruptConn flips one bit of the byte at offset at of everything
// written through it.
type corruptConn struct {
	net.Conn
	at      int64
	written int64
}

func (c *corruptConn) Write(p []byte) (int, error) {
	if off := c.at - c.written; off >= 0 && off < int64(len(p)) {
		q := append([]byte(nil), p...)
		q[off] ^= 0x01
		p = q
	}
	c.written += int64(len(p))
	return c.Conn.Write(p)
}

// tunnelTo connects a tunnel runner straight to the sinks, corrupting
// the byte at offset at of each direction it writes (-1 for none).
func tunnelTo(t *testing.T, at int64) *tunnelRunner {
	t.Helper()
	lan := transport.NewLabelTCP()
	s, err := startSinks(lan)
	if err != nil {
		t.Fatal(err)
	}
	r := &tunnelRunner{sinks: s}
	t.Cleanup(r.close)
	dial := func(label string) net.Conn {
		conn, err := lan.Dial(context.Background(), label)
		if err != nil {
			t.Fatal(err)
		}
		return &corruptConn{Conn: conn, at: at}
	}
	r.bulk, r.echo = dial("bulk-sink"), dial("echo-sink")
	return r
}

func TestBulkCheckCountsCorruptByte(t *testing.T) {
	pattern := seededPattern(rand.New(rand.NewPCG(1, 2)))
	clean := tunnelTo(t, -1)
	if _, err := clean.sendBulk(rand.New(rand.NewPCG(3, 4)), pattern, nil, 4*mib); err != nil {
		t.Fatalf("clean transfer failed its check: %v", err)
	}
	bad := tunnelTo(t, 100_000) // inside the first frame's payload
	_, err := bad.sendBulk(rand.New(rand.NewPCG(3, 4)), pattern, nil, 4*mib)
	if !errors.Is(err, errCheck) {
		t.Fatalf("corrupted transfer: got %v, want a failed check", err)
	}
}

func TestEchoCheckCountsCorruptByte(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	msg, got := make([]byte, echoSize), make([]byte, echoSize)
	if err := tunnelTo(t, -1).echoOnce(rng, msg, got); err != nil {
		t.Fatalf("clean echo failed its check: %v", err)
	}
	if err := tunnelTo(t, 7).echoOnce(rng, msg, got); !errors.Is(err, errCheck) {
		t.Fatalf("corrupted echo: got %v, want a failed check", err)
	}
}

func TestDigestCheck(t *testing.T) {
	blob := []byte("staged input")
	in := grid.FileRef{Name: "input", Hash: stage.Hash(blob), Size: int64(len(blob))}
	good := []byte("input 12 " + in.Hash + "\n")
	outs := []grid.FileRef{{Name: "digest-0", Hash: "h"}, {Name: "digest-1", Hash: "h"}}
	if err := checkDigests(outs, map[string][]byte{"h": good}, in, 2); err != nil {
		t.Fatalf("correct digests failed the check: %v", err)
	}
	wrong := []byte("input 12 " + stage.Hash([]byte("staged inpuT")) + "\n")
	if err := checkDigests(outs, map[string][]byte{"h": wrong}, in, 2); !errors.Is(err, errCheck) {
		t.Fatalf("wrong digest: got %v, want a failed check", err)
	}
	if err := checkDigests(outs[:1], map[string][]byte{"h": good}, in, 2); !errors.Is(err, errCheck) {
		t.Fatalf("missing rank output: got %v, want a failed check", err)
	}
}

func TestOtherChecks(t *testing.T) {
	if err := checkWarm(0); err != nil {
		t.Errorf("warm run moving 0 bytes failed: %v", err)
	}
	if err := checkWarm(1); !errors.Is(err, errCheck) {
		t.Errorf("warm run moving bytes: got %v", err)
	}
	if err := checkJobState("j", "done"); err != nil {
		t.Errorf("done job failed: %v", err)
	}
	if err := checkJobState("j", "failed"); !errors.Is(err, errCheck) {
		t.Errorf("failed job: got %v", err)
	}
	ref := grid.FileRef{Hash: "a", Size: 1}
	if err := checkRef(ref, "b", 1); !errors.Is(err, errCheck) {
		t.Errorf("wrong ref: got %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestSlicedTailIgnoresOneDisturbedSlice(t *testing.T) {
	// 8 slices of 10 values 1..10; the third slice is 5 times slower.
	var values []float64
	for s := 0; s < 8; s++ {
		for v := 1; v <= 10; v++ {
			x := float64(v)
			if s == 2 {
				x *= 5
			}
			values = append(values, x)
		}
	}
	// Each undisturbed slice's 90th percentile is 9.1.
	if got := slicedTail(values, 8, 0.9); got != 9.1 {
		t.Errorf("slicedTail = %v, want 9.1", got)
	}
	if got := slicedTail([]float64{3, 1, 2}, 8, 0.5); got != 2 {
		t.Errorf("slicedTail of too few = %v, want 2", got)
	}
}
