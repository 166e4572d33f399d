package tunnel

import (
	"bytes"
	"context"
	"crypto/rand"
	"io"
	"testing"
	"time"
)

// TestBlockedWriterUnblocksOnCredit is the backpressure regression test:
// a writer that exhausted the peer's receive window must block (not drop
// or error), then resume exactly where it stopped once the reader
// consumes and the WINDOW grant arrives.
func TestBlockedWriterUnblocksOnCredit(t *testing.T) {
	const window = 4 << 10
	client, server := pair(t, Config{WindowMin: window, WindowMax: window})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	accepted := make(chan *Stream, 1)
	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			t.Error(err)
			close(accepted)
			return
		}
		accepted <- st
	}()
	out, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := <-accepted
	if in == nil {
		t.Fatal("accept failed")
	}

	// Every stream starts with DefaultWindow of credit; past it the
	// writer runs on the 4 KiB window.
	payload := make([]byte, DefaultWindow+3*window)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := out.Write(payload)
		if err == nil {
			err = out.CloseWrite()
		}
		wrote <- err
	}()

	// With nothing consuming, the write must stall once the initial
	// credit is spent.
	select {
	case err := <-wrote:
		t.Fatalf("write past the initial credit completed with nothing reading (err=%v); no backpressure", err)
	case <-time.After(200 * time.Millisecond):
	}

	// Draining the stream grants credit and releases the writer.
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 1024)
	for len(got) < len(payload) {
		n, err := in.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writer failed after credit: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across backpressure stall")
	}
	if _, err := in.Read(buf); err != io.EOF {
		t.Fatalf("after CloseWrite: read err = %v, want EOF", err)
	}
}

// TestBlockedWriterAbortsOnSessionClose: a writer parked on an exhausted
// window must not hang forever when the session dies under it.
func TestBlockedWriterAbortsOnSessionClose(t *testing.T) {
	const window = 4 << 10
	client, server := pair(t, Config{WindowMin: window, WindowMax: window})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	go func() {
		// Hold the stream open without reading so no credit ever flows.
		if _, err := server.Accept(ctx); err != nil {
			t.Error(err)
		}
	}()
	out, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	wrote := make(chan error, 1)
	go func() {
		_, err := out.Write(make([]byte, DefaultWindow+3*window))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write completed with nothing reading (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}

	_ = client.Close()
	select {
	case err := <-wrote:
		if err == nil {
			t.Fatal("blocked writer returned nil error after session close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked writer hung after session close")
	}
}
