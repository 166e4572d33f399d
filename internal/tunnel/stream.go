package tunnel

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/wire"
)

// pooledFrameMin is the smallest sequenced frame payload held in a pooled
// 64 KiB lease (see seqPayload).
const pooledFrameMin = 32 << 10

// seqPayload returns an n-byte buffer for a sequenced frame payload that
// outlives the call: the sender's retransmit copy or the receiver's
// parked early frame. Large payloads take a pooled lease; smaller ones a
// buffer of their own size, so the memory held per frame stays within
// twice its bytes however small the writes. wire.PutPayload releases
// either kind, dropping the buffers that never came from the pool.
func seqPayload(n int) []byte {
	if n >= pooledFrameMin {
		return wire.GetPayload(n)
	}
	return make([]byte, n)
}

// oooFrame is one out-of-order sequenced frame parked for reassembly: the
// payload was copied into a buffer of its own (buf), released when the
// frame drains in order. fin entries carry no payload.
type oooFrame struct {
	buf []byte
	fin bool
}

// Stream is one logical byte stream within a Session. It implements
// net.Conn so spliced application connections and MPI rank channels can use
// it interchangeably with real sockets.
type Stream struct {
	session *Session
	id      uint32
	meta    []byte
	// accepted marks streams created by the peer's SYN.
	accepted bool
	// synAcked is set once the peer is known to hold its side of the
	// stream: at creation for accepted streams, on the SYNACK for opened
	// ones. Until then sequenced frames stay on the primary behind the SYN.
	synAcked atomic.Bool

	// nextSendSeq numbers this stream's outbound sequenced frames.
	nextSendSeq atomic.Uint64

	// Receive side. Window accounting is kept as three monotonic totals:
	// extended is all credit ever granted to the peer (seeded with the
	// initial window), delivered is in-order bytes buffered for reading,
	// consumed is bytes the application has read. The peer violates the
	// protocol iff delivered (plus out-of-order bytes parked in ooo)
	// would exceed extended; grants top extended back up to
	// consumed + target, which for a static target (WindowMin ==
	// WindowMax) is exactly "replenish what was read" and otherwise lets
	// the window grow or shrink as the estimators move.
	recvMu    sync.Mutex
	recvCond  *sync.Cond
	recvBuf   bytes.Buffer
	recvEOF   bool
	recvErr   error
	extended  int64
	delivered int64
	consumed  int64
	// grantInFlight marks the single reader currently out of the lock
	// sending a WINDOW grant; others keep accumulating instead of
	// double-granting the same credit.
	grantInFlight bool
	readDeadline  time.Time
	// Reassembly of sequenced frames: nextSeq is the next in-order
	// sequence, ooo the frames that arrived early keyed by seq,
	// oooBytes their payload total (counted against the window).
	nextSeq  uint64
	ooo      map[uint64]oooFrame
	oooBytes int

	// Send side.
	sendMu        sync.Mutex
	sendCond      *sync.Cond
	sendWindow    int
	sendClosed    bool
	sendErr       error
	writeDeadline time.Time
}

var _ net.Conn = (*Stream)(nil)

func newStream(s *Session, id uint32) *Stream {
	s.flow.clampToBudget(s.cfg, s.table.len()+1)
	st := &Stream{
		session:    s,
		id:         id,
		sendWindow: DefaultWindow,
		extended:   DefaultWindow,
	}
	st.recvCond = sync.NewCond(&st.recvMu)
	st.sendCond = sync.NewCond(&st.sendMu)
	return st
}

// ID returns the stream's session-unique id.
func (st *Stream) ID() uint32 { return st.id }

// Meta returns the metadata the opener attached (nil on the opening side).
func (st *Stream) Meta() []byte { return st.meta }

// deliverSeq accepts one sequenced frame: in-order data is buffered
// immediately and the parked frames drained behind it;
// early frames are copied into a buffer of their own and parked; frames
// at an already-delivered or already-parked sequence are retransmit
// duplicates and dropped. fin frames occupy a sequence slot so EOF cannot
// overtake data still in flight on another member connection.
//
// Parked state is bounded by the credit outstanding, which an honest
// sender never exceeds. Parked bytes count against the window like
// delivered ones. And every non-fin frame carries at least one byte
// (dispatch rejects empty DATAQ), so each of the frames from nextSeq up
// to an early frame holds a byte of that credit: a frame farther ahead
// than the credit allows kills the session, which caps the parked frame
// count at the credit too.
func (st *Stream) deliverSeq(seq uint64, p []byte, fin bool) error {
	st.recvMu.Lock()
	defer st.recvMu.Unlock()
	if st.recvErr != nil || st.recvEOF {
		return nil
	}
	if seq < st.nextSeq {
		return nil // duplicate of a frame already delivered
	}
	if seq == st.nextSeq {
		// An honest peer never has more than the granted credit
		// outstanding, so buffered-but-unread data can never legitimately
		// exceed it.
		if st.delivered+int64(st.oooBytes)+int64(len(p)) > st.extended {
			return fmt.Errorf("tunnel: stream %d receive window overrun", st.id)
		}
		if fin {
			st.recvEOF = true
		} else {
			st.recvBuf.Write(p)
			st.delivered += int64(len(p))
		}
		st.nextSeq++
		// Drain every parked frame that is now in order.
		for len(st.ooo) > 0 {
			f, ok := st.ooo[st.nextSeq]
			if !ok {
				break
			}
			delete(st.ooo, st.nextSeq)
			if f.fin {
				st.recvEOF = true
			} else {
				st.recvBuf.Write(f.buf)
				st.delivered += int64(len(f.buf))
				st.oooBytes -= len(f.buf)
			}
			wire.PutPayload(f.buf)
			st.nextSeq++
		}
		st.recvCond.Broadcast()
		return nil
	}
	// Early.
	if _, dup := st.ooo[seq]; dup {
		return nil
	}
	if st.delivered+int64(st.oooBytes)+int64(len(p)) > st.extended {
		return fmt.Errorf("tunnel: stream %d receive window overrun", st.id)
	}
	// Frames nextSeq..seq-1 are all still missing, and so is this one's
	// payload unless it is the fin: each needs a byte of credit.
	need := seq - st.nextSeq
	if !fin {
		need++
	}
	if need > uint64(st.extended-st.delivered) {
		return fmt.Errorf("tunnel: stream %d frame %d too far ahead of %d for %d bytes of credit",
			st.id, seq, st.nextSeq, st.extended-st.delivered)
	}
	f := oooFrame{fin: fin}
	if !fin {
		// Copy: the dispatch loop releases its read buffer the moment
		// dispatch returns.
		f.buf = seqPayload(len(p))
		copy(f.buf, p)
		st.oooBytes += len(p)
	}
	if st.ooo == nil {
		st.ooo = make(map[uint64]oooFrame)
	}
	st.ooo[seq] = f
	return nil
}

// grantSendWindow adds peer credit and wakes writers.
func (st *Stream) grantSendWindow(delta int) {
	st.sendMu.Lock()
	st.sendWindow += delta
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
}

// closeWithError fails both directions (session teardown, RST).
func (st *Stream) closeWithError(err error) {
	st.recvMu.Lock()
	if st.recvErr == nil {
		st.recvErr = err
	}
	st.releaseOOOLocked()
	st.recvCond.Broadcast()
	st.recvMu.Unlock()
	st.sendMu.Lock()
	if st.sendErr == nil {
		st.sendErr = err
	}
	st.sendClosed = true
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
}

// releaseOOOLocked returns parked reassembly buffers to the pool (PutPayload
// drops the ones that never came from it). Caller holds recvMu.
func (st *Stream) releaseOOOLocked() {
	for _, f := range st.ooo {
		wire.PutPayload(f.buf)
	}
	st.ooo = nil
	st.oooBytes = 0
}

// Read implements net.Conn. It returns io.EOF after the peer half-closes
// and all buffered data is consumed.
func (st *Stream) Read(p []byte) (int, error) {
	st.recvMu.Lock()
	for st.recvBuf.Len() == 0 {
		if err := st.recvErr; err != nil {
			st.recvMu.Unlock()
			return 0, err
		}
		if st.recvEOF && len(st.ooo) == 0 {
			st.recvMu.Unlock()
			return 0, io.EOF
		}
		if !st.waitRecvLocked() {
			st.recvMu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
	}
	n, _ := st.recvBuf.Read(p)
	st.consumed += int64(n)
	st.recvMu.Unlock()
	st.sendPendingGrant()
	return n, nil
}

// sendPendingGrant tops the peer's credit back up to the current window
// target once at least half a target's worth is owed (granting per-read
// would double frame volume). Credit accounting has a single owner:
// whichever reader flips grantInFlight sends the owed credit outside the
// lock; concurrent readers keep accumulating rather than banking the same
// credit twice, and the loop re-checks after each send so credit owed
// meanwhile is never stranded. With a static target the owed amount is
// exactly the bytes consumed since the last grant; with a moving target
// the same arithmetic also grows (or starves) the window as the
// estimator moves.
func (st *Stream) sendPendingGrant() {
	st.recvMu.Lock()
	for st.recvErr == nil && !st.grantInFlight {
		target := st.session.windowTarget()
		delta := st.consumed + target - st.extended
		if delta < target/2 || delta <= 0 {
			break
		}
		st.grantInFlight = true
		st.extended += delta
		st.recvMu.Unlock()
		var buf [8]byte
		payload := wire.AppendUint32(buf[:0], st.id)
		payload = wire.AppendUint32(payload, uint32(delta))
		_ = st.session.w.WriteControl(frameWINDOW, payload)
		st.recvMu.Lock()
		st.grantInFlight = false
	}
	st.recvMu.Unlock()
}

// waitRecvLocked blocks until recvCond is signaled or the read deadline passes.
// It reports false on deadline expiry. Caller holds recvMu.
func (st *Stream) waitRecvLocked() bool {
	deadline := st.readDeadline
	if deadline.IsZero() {
		st.recvCond.Wait()
		return true
	}
	if !time.Now().Before(deadline) {
		return false
	}
	// Arm a timer that wakes the cond at the deadline.
	timer := time.AfterFunc(time.Until(deadline), func() {
		st.recvMu.Lock()
		st.recvCond.Broadcast()
		st.recvMu.Unlock()
	})
	st.recvCond.Wait()
	timer.Stop()
	return time.Now().Before(deadline) || st.recvBuf.Len() > 0 || st.recvEOF || st.recvErr != nil
}

// Write implements net.Conn. Data is segmented into DATAQ frames paced
// by the peer's receive window; sendFrame says where each goes.
func (st *Stream) Write(p []byte) (int, error) {
	total := 0
	var hdr [12]byte
	for len(p) > 0 {
		n, err := st.reserveSend(len(p))
		if err != nil {
			return total, err
		}
		parts := [2][]byte{hdr[:], p[:n]}
		if err := st.sendSeq(false, n, parts[:]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// WriteBuffers writes the concatenation of segs as stream data without
// assembling them into one contiguous slice first (net.Buffers-style):
// each DATAQ frame gathers directly from as many segments as fit, so
// small prefixes (length fields, checksums) ride in the same frame as the
// bulk payload that follows them. Frame boundaries fall exactly as if the
// segments had been written back-to-back with Write. The gather target is
// the primary writer's coalescing buffer or a secondary's retransmit
// copy, so either way the payload is copied once.
func (st *Stream) WriteBuffers(segs ...[]byte) (int64, error) {
	remaining := 0
	for _, seg := range segs {
		remaining += len(seg)
	}
	var total int64
	var hdr [12]byte
	parts := make([][]byte, 1, len(segs)+1)
	i, off := 0, 0
	for remaining > 0 {
		n, err := st.reserveSend(remaining)
		if err != nil {
			return total, err
		}
		// sendSeq copies every part before returning, so hdr and parts
		// can be reused per frame.
		parts = parts[:1]
		parts[0] = hdr[:]
		for k := n; k > 0; {
			seg := segs[i][off:]
			if len(seg) == 0 {
				i, off = i+1, 0
				continue
			}
			take := min(len(seg), k)
			parts = append(parts, seg[:take])
			off += take
			k -= take
		}
		if err := st.sendSeq(false, n, parts); err != nil {
			return total, err
		}
		total += int64(n)
		remaining -= n
	}
	return total, nil
}

// reserveSend blocks until at least one byte of send-window credit is
// available and claims up to want bytes (capped by the window and the
// segment size), or fails if the stream is closed or the deadline passes.
func (st *Stream) reserveSend(want int) (int, error) {
	st.sendMu.Lock()
	for st.sendWindow == 0 && !st.sendClosed {
		if !st.waitSendLocked() {
			st.sendMu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
	}
	if st.sendClosed {
		err := st.sendErr
		st.sendMu.Unlock()
		if err == nil {
			err = ErrStreamClosed
		}
		return 0, err
	}
	n := want
	if n > st.sendWindow {
		n = st.sendWindow
	}
	if n > maxSegment {
		n = maxSegment
	}
	st.sendWindow -= n
	st.sendMu.Unlock()
	return n, nil
}

// waitSendLocked blocks until window credit arrives or the write deadline passes.
// Caller holds sendMu.
func (st *Stream) waitSendLocked() bool {
	deadline := st.writeDeadline
	if deadline.IsZero() {
		st.sendCond.Wait()
		return true
	}
	if !time.Now().Before(deadline) {
		return false
	}
	timer := time.AfterFunc(time.Until(deadline), func() {
		st.sendMu.Lock()
		st.sendCond.Broadcast()
		st.sendMu.Unlock()
	})
	st.sendCond.Wait()
	timer.Stop()
	return time.Now().Before(deadline) || st.sendWindow > 0 || st.sendClosed
}

// CloseWrite half-closes the stream: the peer sees EOF after draining.
// On a stream the peer refused it reports ErrStreamRefused.
func (st *Stream) CloseWrite() error {
	st.sendMu.Lock()
	if st.sendClosed {
		err := st.sendErr
		st.sendMu.Unlock()
		if err == ErrStreamRefused {
			return err
		}
		return nil
	}
	st.sendClosed = true
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
	// FINQ takes a sequence slot so it cannot overtake data in flight on
	// another member connection.
	var hdr [12]byte
	parts := [1][]byte{hdr[:]}
	return st.sendSeq(true, 0, parts[:])
}

// Close fully closes the stream and releases it from the session.
func (st *Stream) Close() error {
	err := st.CloseWrite()
	st.recvMu.Lock()
	if st.recvErr == nil {
		st.recvErr = ErrStreamClosed
	}
	st.releaseOOOLocked()
	st.recvCond.Broadcast()
	st.recvMu.Unlock()
	st.session.removeStream(st.id)
	return err
}

// LocalAddr implements net.Conn, delegating to the session connection.
func (st *Stream) LocalAddr() net.Addr { return st.session.conn.LocalAddr() }

// RemoteAddr implements net.Conn, delegating to the session connection.
func (st *Stream) RemoteAddr() net.Addr { return st.session.conn.RemoteAddr() }

// SetDeadline implements net.Conn.
func (st *Stream) SetDeadline(t time.Time) error {
	if err := st.SetReadDeadline(t); err != nil {
		return err
	}
	return st.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (st *Stream) SetReadDeadline(t time.Time) error {
	st.recvMu.Lock()
	st.readDeadline = t
	st.recvCond.Broadcast()
	st.recvMu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (st *Stream) SetWriteDeadline(t time.Time) error {
	st.sendMu.Lock()
	st.writeDeadline = t
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
	return nil
}
