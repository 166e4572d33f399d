package tunnel

import (
	"context"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"gridproxy/internal/wire"
)

// fuzzFrameTypes are the frame types a session understands; a fuzz
// record's type byte selects one modulo their count.
var fuzzFrameTypes = [...]byte{
	frameSYN, frameSYNACK, frameRST, frameWINDOW, framePING, framePONG,
	frameGOAWAY, frameBONDJOIN, frameBONDACK, frameDATAQ, frameFINQ,
}

// fuzzRecord encodes one fuzz record: [type selector][payload length
// u16][payload].
func fuzzRecord(typ byte, payload []byte) []byte {
	sel := byte(0)
	for i, t := range fuzzFrameTypes {
		if t == typ {
			sel = byte(i)
		}
	}
	b := append([]byte{sel}, byte(len(payload)>>8), byte(len(payload)))
	return append(b, payload...)
}

// fuzzSeqPayload is a DATAQ/FINQ payload: [stream id][seq][data].
func fuzzSeqPayload(id uint32, seq uint64, data []byte) []byte {
	return append(wire.AppendUint64(wire.AppendUint32(nil, id), seq), data...)
}

// fuzzFrames decodes fuzz input into frames, dropping a truncated tail.
func fuzzFrames(data []byte) []wire.Frame {
	var out []wire.Frame
	for len(data) >= 3 {
		typ := fuzzFrameTypes[int(data[0])%len(fuzzFrameTypes)]
		n := min(int(binary.BigEndian.Uint16(data[1:3])), len(data)-3)
		out = append(out, wire.Frame{Type: typ, Payload: data[3 : 3+n]})
		data = data[3+n:]
	}
	return out
}

// FuzzSessionFrames feeds arbitrary frame sequences to a server session
// whose streams are accepted and read as they arrive. Whatever the
// sequence, the session must not panic, must answer a PING sent after it
// or have ended, and Close must return with Done closed and no stream
// left in the table.
func FuzzSessionFrames(f *testing.F) {
	syn := fuzzRecord(frameSYN, wire.AppendUint32(nil, 1))
	cat := func(recs ...[]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	// A BONDACK for a member the session never had.
	f.Add(cat(syn, fuzzRecord(frameBONDACK, wire.AppendUint64([]byte{1, 7}, 5))))
	// A FINQ that arrives before the data it follows.
	f.Add(cat(syn,
		fuzzRecord(frameFINQ, fuzzSeqPayload(1, 1, nil)),
		fuzzRecord(frameDATAQ, fuzzSeqPayload(1, 0, []byte("data")))))
	// DATAQ beyond the stream's credit, by size and by sequence.
	// A record's length is 16 bits: 12 header bytes and 65523 of data.
	var flood [][]byte
	for seq := uint64(0); seq*maxSegment <= DefaultWindow; seq++ {
		flood = append(flood, fuzzRecord(frameDATAQ, fuzzSeqPayload(1, seq, make([]byte, maxSegment-13))))
	}
	f.Add(cat(append([][]byte{syn}, flood...)...))
	f.Add(cat(syn, fuzzRecord(frameDATAQ, fuzzSeqPayload(1, 1<<20, []byte{1}))))
	f.Add(cat(syn, fuzzRecord(frameWINDOW, wire.AppendUint32(wire.AppendUint32(nil, 1), 1<<31))))

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, raw := memConnPair(t)
		defer raw.Close()
		session := Server(conn, Config{
			WindowMin: 8 << 10, WindowMax: 8 << 10,
			MaxStreams: 8, AcceptBacklog: 4, ProbeInterval: time.Hour,
		})
		go func() {
			for {
				st, err := session.Accept(context.Background())
				if err != nil {
					return
				}
				go func() { _, _ = io.Copy(io.Discard, st) }()
			}
		}()
		const barrier = 1 << 62
		answered := make(chan struct{}, 1)
		go func() {
			r := wire.NewReader(raw)
			for {
				fr, err := r.ReadFrame()
				if err != nil {
					return
				}
				if fr.Type == framePONG && len(fr.Payload) == 8 && binary.BigEndian.Uint64(fr.Payload) == barrier {
					select {
					case answered <- struct{}{}:
					default:
					}
				}
			}
		}()

		w := wire.NewWriter(raw)
		for _, fr := range fuzzFrames(data) {
			if w.WriteFrame(fr.Type, fr.Payload) != nil {
				break // the session ended and closed the connection
			}
		}
		_ = w.WriteControl(framePING, wire.AppendUint64(nil, barrier))
		select {
		case <-answered:
		case <-session.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("session neither answered the barrier PING nor ended")
		}

		closed := make(chan struct{})
		go func() {
			_ = session.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return")
		}
		select {
		case <-session.Done():
		default:
			t.Fatal("Done open after Close")
		}
		if n := session.NumStreams(); n != 0 {
			t.Fatalf("NumStreams = %d after Close", n)
		}
	})
}
