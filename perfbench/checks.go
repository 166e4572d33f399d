package main

import (
	"bytes"
	"fmt"

	"gridproxy/internal/grid"
)

// The checks below decide whether an operation's result is correct. Each
// returns an error wrapping errCheck on a wrong result; the workloads
// count those as failed operations.

// checkJobState checks the gateway reports a finished job as done.
func checkJobState(id, state string) error {
	if state != "done" {
		return fmt.Errorf("%w: gateway reports job %s %q, want \"done\"", errCheck, id, state)
	}
	return nil
}

// checkBulk checks the sink saw exactly the bytes the sender sent.
func checkBulk(sent int64, sentCRC uint32, got int64, gotCRC uint32) error {
	if got != sent || gotCRC != sentCRC {
		return fmt.Errorf("%w: bulk sink saw %d bytes crc32c %08x, sent %d bytes crc32c %08x",
			errCheck, got, gotCRC, sent, sentCRC)
	}
	return nil
}

// checkEcho checks an echo came back unchanged.
func checkEcho(sent, got []byte) error {
	if !bytes.Equal(sent, got) {
		return fmt.Errorf("%w: echo payload changed in flight", errCheck)
	}
	return nil
}

// checkRef checks a stored blob's reference names its content.
func checkRef(ref grid.FileRef, hash string, size int64) error {
	if ref.Hash != hash || ref.Size != size {
		return fmt.Errorf("%w: put returned %s (%d bytes), want %s (%d bytes)",
			errCheck, ref.Hash, ref.Size, hash, size)
	}
	return nil
}

// checkWarm checks a rerun on a cached blob moved no stage bytes.
func checkWarm(bytesIn int64) error {
	if bytesIn != 0 {
		return fmt.Errorf("%w: warm iteration moved %d stage bytes, want 0", errCheck, bytesIn)
	}
	return nil
}

// checkDigests checks a digest job published one output per rank and
// that every output names the staged blob's size and SHA-256.
func checkDigests(outs []grid.FileRef, contents map[string][]byte, in grid.FileRef, ranks int) error {
	want := fmt.Sprintf("%s %d %s\n", in.Name, in.Size, in.Hash)
	seen := make(map[string]bool)
	for _, o := range outs {
		seen[o.Name] = true
		if got := string(contents[o.Hash]); got != want {
			return fmt.Errorf("%w: output %s reads %q, want %q", errCheck, o.Name, got, want)
		}
	}
	for rank := 0; rank < ranks; rank++ {
		if name := fmt.Sprintf("digest-%d", rank); !seen[name] {
			return fmt.Errorf("%w: output %s missing", errCheck, name)
		}
	}
	return nil
}
