package tunnel

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/wire"
)

// Connection bonding. A bond joins k connections between the same two
// peers into one logical Session: the dialer opens k-1 extra connections
// and prefixes each with a BONDJOIN frame naming the bond id (16 random
// bytes exchanged in the handshake hello) and the member's index; the
// acceptor routes those connections to the already-established session
// via a BondRegistry. Every stream sends its data as DATAQ frames, each
// numbered by a per-stream sequence, to the member with the least
// outstanding (unacknowledged) bytes, and the receiver reassembles each
// stream in sequence order. A session that never bonds is a bond of one:
// the same frames, all on the primary.
//
// Reliability: wire.Writer numbers Seq-writes in wire order under its own
// lock, and the receiver counts DATAQ/FINQ arrivals per connection, so a
// cumulative BONDACK of "n frames received" on a connection covers an
// exact prefix of what was written there. A frame on a secondary is
// copied (into a seqPayload buffer), queued to the member's sendLoop and
// retained until that ack covers it; when a secondary dies mid-stream its
// queued and unacked frames are resprayed over the survivors, and
// per-stream sequence numbers make the replay idempotent (duplicates are
// dropped in reassembly), so a member death loses zero bytes. The primary
// carries the control plane and is not failover-able: its death ends the
// session, so a frame on it never needs a retransmit copy. While the
// primary is the only member, each frame is gathered straight from the
// caller's buffer into its writer: no copy, no queue hop, nothing kept.
// Once members join, the primary takes frames through its send queue like
// the others, so a writer is not held by one member's flush while the
// rest idle; it drops each copy once written and keeps only the frame's
// size until its ack, for the least-outstanding balance.

// BondID identifies the member connections of one bond.
type BondID [16]byte

// sentFrame is one sequenced frame a member has queued or written and
// not yet seen acknowledged.
type sentFrame struct {
	wseq   uint64 // position among Seq-writes on the member's writer
	stream uint32
	seq    uint64 // per-stream sequence
	fin    bool
	n      int    // payload bytes
	buf    []byte // the queued copy (seqPayload), kept until acked on a secondary; nil for FINQ
}

// cost is the frame's weight in the least-outstanding-bytes balance.
func (f *sentFrame) cost() int64 { return int64(f.n) + frameOverhead }

// frameOverhead approximates per-frame wire overhead for the
// least-outstanding-bytes spray metric, so empty FINQ frames still count.
const frameOverhead = 16

// member is one connection of a session's bond. Index 0 is the primary.
type member struct {
	session *Session
	index   int
	conn    net.Conn
	w       *wire.Writer

	// Send queue, unused while the primary is the only member:
	// sendFrame enqueues, one sendLoop per member drains in multi-frame
	// batches (wire.WriteSeqFrames), so the frames in flight on a member
	// are bounded by window credit, not by how many stream writers happen
	// to be blocked in a flush. qmu is never held across I/O; qcond wakes
	// the loop on arrivals and on death.
	qmu    sync.Mutex
	qcond  *sync.Cond
	queue  []sentFrame
	sender bool

	dead atomic.Bool
	// outstanding is the spray balance metric: payload bytes written but
	// not yet acknowledged (plus a fixed per-frame overhead).
	outstanding atomic.Int64
	// srttMicros is the smoothed RTT of this connection, EWMA over probe
	// samples, in microseconds. 0 = no sample yet.
	srttMicros atomic.Int64

	// Receiver side: how many sequenced frames arrived on this
	// connection, and through which count we last sent a BONDACK.
	rcvdSeq atomic.Uint64
	ackSent atomic.Uint64

	// Sender side: frames awaiting acknowledgement, sorted by wseq, and
	// the highest cumulative ack applied. retMu is never held across I/O.
	retMu    sync.Mutex
	retained []sentFrame
	ackedCum uint64
}

// newMember wires up one bond member around an established connection.
func newMember(s *Session, index int, conn net.Conn, w *wire.Writer) *member {
	m := &member{session: s, index: index, conn: conn, w: w}
	m.qcond = sync.NewCond(&m.qmu)
	return m
}

// recordRTT folds one probe sample into the member's smoothed RTT.
func (m *member) recordRTT(rtt time.Duration) {
	us := rtt.Microseconds()
	if us <= 0 {
		us = 1
	}
	old := m.srttMicros.Load()
	if old == 0 {
		m.srttMicros.Store(us)
		return
	}
	// Standard 7/8 smoothing; a stale read under concurrent pongs only
	// costs one sample's weight.
	m.srttMicros.Store(old + (us-old)/8)
}

// countSeqArrival bumps the receiver-side frame count and pushes a
// cumulative BONDACK once enough frames accumulated. Stragglers (a tail
// smaller than bondAckEvery when traffic pauses) are swept by the prober.
func (m *member) countSeqArrival(s *Session) {
	n := m.rcvdSeq.Add(1)
	if n-m.ackSent.Load() >= bondAckEvery {
		s.sendBondAck(m)
	}
}

// sendBondAck reports the member's cumulative received-frame count to the
// sender. Acks ride the primary's control lane: they must never be queued
// behind bulk data on a congested member, and the primary's death kills
// the session anyway so no redundancy is lost.
func (s *Session) sendBondAck(m *member) {
	cum := m.rcvdSeq.Load()
	m.ackSent.Store(cum)
	var buf [10]byte
	p := append(buf[:0], 1, byte(m.index))
	p = wire.AppendUint64(p, cum)
	_ = s.w.WriteControl(frameBONDACK, p)
}

// flushBondAcks pushes acks for any member with unacknowledged arrivals;
// called from the prober tick.
func (s *Session) flushBondAcks() {
	for _, m := range s.liveMembers() {
		if m.rcvdSeq.Load() != m.ackSent.Load() {
			s.sendBondAck(m)
		}
	}
}

// handleBondAck releases retained frames covered by the peer's cumulative
// per-connection counts.
func (s *Session) handleBondAck(payload []byte) error {
	buf := wire.NewBuffer(payload)
	count := int(buf.Uint8())
	type ack struct {
		idx int
		cum uint64
	}
	var acks [8]ack
	if count > len(acks) {
		return fmt.Errorf("tunnel: BONDACK with %d entries", count)
	}
	for i := 0; i < count; i++ {
		acks[i] = ack{idx: int(buf.Uint8()), cum: buf.Uint64()}
	}
	if err := buf.Err(); err != nil {
		return fmt.Errorf("tunnel: bad BONDACK: %w", err)
	}
	for i := 0; i < count; i++ {
		for _, m := range s.liveMembers() {
			if m.index == acks[i].idx {
				m.releaseTo(acks[i].cum)
				break
			}
		}
	}
	return nil
}

// retain records a successfully written frame until its ack arrives. The
// outstanding balance was already charged before the write; if the ack
// raced ahead of us the frame is released immediately.
func (m *member) retain(f sentFrame) {
	m.retMu.Lock()
	if f.wseq <= m.ackedCum {
		m.retMu.Unlock()
		m.outstanding.Add(-f.cost())
		wire.PutPayload(f.buf)
		return
	}
	// Insert keeping wseq order. Concurrent sprayers can retain slightly
	// out of order, but wseqs are near-monotonic so the bubble is short.
	m.retained = append(m.retained, f)
	for i := len(m.retained) - 1; i > 0 && m.retained[i-1].wseq > m.retained[i].wseq; i-- {
		m.retained[i-1], m.retained[i] = m.retained[i], m.retained[i-1]
	}
	m.retMu.Unlock()
}

// releaseTo releases every retained frame whose wire position is covered
// by the cumulative ack.
func (m *member) releaseTo(cum uint64) {
	var freed int64
	m.retMu.Lock()
	if cum > m.ackedCum {
		m.ackedCum = cum
	}
	i := 0
	for ; i < len(m.retained) && m.retained[i].wseq <= cum; i++ {
		f := &m.retained[i]
		freed += f.cost()
		wire.PutPayload(f.buf)
	}
	if i > 0 {
		rest := copy(m.retained, m.retained[i:])
		// Zero the tail so retired entries don't pin pooled buffers.
		for j := rest; j < len(m.retained); j++ {
			m.retained[j] = sentFrame{}
		}
		m.retained = m.retained[:rest]
	}
	m.retMu.Unlock()
	if freed != 0 {
		m.outstanding.Add(-freed)
	}
}

// takeRetained empties the retention queue (failover) and returns it.
func (m *member) takeRetained() []sentFrame {
	m.retMu.Lock()
	pend := m.retained
	m.retained = nil
	m.retMu.Unlock()
	return pend
}

// releaseAll drops the retention queue, returning buffers to the pool
// (session teardown).
func (m *member) releaseAll() {
	for _, f := range m.takeRetained() {
		wire.PutPayload(f.buf)
	}
}

// pickMember selects the member a frame goes to: the live member with the
// least outstanding bytes — the policy that keeps a slow or lossy member
// from capping the bond, since it simply stops winning the election while
// its acks lag — or, for a pinned frame, the primary. A pinned frame
// belongs to a stream whose SYNACK has not arrived yet and must follow
// the SYN on the connection that carried it: sent elsewhere it could
// reach the peer before the stream exists there, be dropped as unknown
// and still be acknowledged by BONDACK. nil means no live member is left.
func (s *Session) pickMember(pinned bool) *member {
	ms := s.liveMembers()
	if pinned {
		ms = ms[:1]
	}
	var best *member
	var bestOut int64
	for _, m := range ms {
		if m.dead.Load() {
			continue
		}
		out := m.outstanding.Load()
		if best == nil || out < bestOut {
			best, bestOut = m, out
		}
	}
	return best
}

// sprayBatchMax caps how many queued frames one sendLoop iteration folds
// into a single WriteSeqFrames batch (and thus one flush).
const sprayBatchMax = 32

// sendFrame sends one sequenced frame: a DATAQ whose f.n payload bytes are
// gathered from parts[1:], or a FINQ. parts[0] is the caller's 12-byte
// header buffer. While the primary is the session's only member the frame
// is written in place and sendFrame returns once it is on the wire.
// Otherwise the chosen member gets a copy (f.buf, made here unless the
// frame already owns one) on its send queue and sendFrame returns once it
// is queued, so a writer keeps spraying while members flush. A queued
// frame's write failure surfaces through memberFailed, which resprays it;
// the caller sees an error only when the in-place write fails or no live
// member remains. sendFrame takes ownership of f.buf.
func (s *Session) sendFrame(f sentFrame, parts [][]byte, pinned bool) error {
	for {
		m := s.pickMember(pinned)
		if m == nil {
			wire.PutPayload(f.buf)
			return s.closeErr()
		}
		if m.index == 0 && s.BondWidth() == 1 {
			err := m.writeInPlace(f, parts)
			wire.PutPayload(f.buf)
			return err
		}
		if f.buf == nil && f.n > 0 {
			f.buf = seqPayload(f.n)
			w := 0
			for _, p := range parts[1:] {
				w += copy(f.buf[w:], p)
			}
		}
		if m.enqueue(f) {
			return nil
		}
	}
}

// writeInPlace writes f on the primary, gathering its payload from
// parts[1:] behind the header it encodes into parts[0] (the bytes are
// written in place, so the caller's buffer stays on its stack). Nothing
// is kept: the primary's death ends the session, so the frame never
// needs a retransmit copy, and with no other member there is no spray
// balance to charge. It still takes a Seq position, so the peer's
// BONDACK counts for the primary stay exact: they release the sizes the
// primary kept while the bond was wider.
func (m *member) writeInPlace(f sentFrame, parts [][]byte) error {
	binary.BigEndian.PutUint32(parts[0], f.stream)
	binary.BigEndian.PutUint64(parts[0][4:], f.seq)
	typ := frameDATAQ
	if f.fin {
		typ = frameFINQ
	}
	if _, err := m.w.WriteFramevSeq(typ, parts...); err != nil {
		return m.session.writeFailed(fmt.Errorf("tunnel: send %#x: %w", typ, err))
	}
	return nil
}

// enqueue charges the frame against the member's outstanding balance and
// appends it to the send queue, lazily starting the member's sendLoop.
// It refuses (uncharging) if the member died first.
func (m *member) enqueue(f sentFrame) bool {
	cost := f.cost()
	m.outstanding.Add(cost)
	m.qmu.Lock()
	if m.dead.Load() {
		m.qmu.Unlock()
		m.outstanding.Add(-cost)
		return false
	}
	m.queue = append(m.queue, f)
	if !m.sender {
		m.sender = true
		//lint:allow-leak sendLoop is supervised by the member: failover or
		// session shutdown marks it dead and broadcasts qcond, and the loop
		// drains its queue and exits.
		go m.sendLoop()
	}
	m.qcond.Signal()
	m.qmu.Unlock()
	return true
}

// sendLoop drains the member's send queue in batches: up to sprayBatchMax
// frames per WriteSeqFrames call share one writer-lock acquisition and
// one flush wait. On member death it resprays everything still queued or
// in flight over the survivors; per-stream sequence numbers make the
// replay idempotent at the receiver.
func (m *member) sendLoop() {
	items := make([]sentFrame, 0, sprayBatchMax)
	frames := make([]wire.SeqFrame, sprayBatchMax)
	var hdrs [sprayBatchMax][12]byte
	for {
		m.qmu.Lock()
		for len(m.queue) == 0 && !m.dead.Load() {
			m.qcond.Wait()
		}
		if m.dead.Load() {
			rest := m.queue
			m.queue = nil
			m.qmu.Unlock()
			m.session.resprayFrames(rest)
			return
		}
		n := len(m.queue)
		if n > sprayBatchMax {
			n = sprayBatchMax
		}
		items = append(items[:0], m.queue[:n]...)
		kept := copy(m.queue, m.queue[n:])
		// Zero the tail so drained entries don't pin pooled buffers.
		for j := kept; j < len(m.queue); j++ {
			m.queue[j] = sentFrame{}
		}
		m.queue = m.queue[:kept]
		m.qmu.Unlock()

		for i := range items[:n] {
			f := &items[i]
			p := wire.AppendUint32(hdrs[i][:0], f.stream)
			p = wire.AppendUint64(p, f.seq)
			if f.fin {
				frames[i] = wire.SeqFrame{Type: frameFINQ, Hdr: p}
			} else {
				frames[i] = wire.SeqFrame{Type: frameDATAQ, Hdr: p, Payload: f.buf}
			}
		}
		first, err := m.w.WriteSeqFrames(frames[:n])
		if err != nil {
			m.session.memberFailed(m, err)
			m.qmu.Lock()
			rest := m.queue
			m.queue = nil
			m.qmu.Unlock()
			m.session.resprayFrames(items[:n])
			m.session.resprayFrames(rest)
			return
		}
		// One sendLoop per member means retains land in strict wseq order.
		for i := range items[:n] {
			f := items[i]
			f.wseq = first + uint64(i)
			if m.index == 0 {
				// The primary's death ends the session: keep only the
				// frame's size, for the spray balance, not its copy.
				wire.PutPayload(f.buf)
				f.buf = nil
			}
			m.retain(f)
		}
	}
}

// resprayFrames re-sprays frames stranded on a dead member (queued or
// unacknowledged) over the surviving members, releasing their buffers if
// the whole session dies mid-way.
func (s *Session) resprayFrames(pend []sentFrame) {
	var hdr [12]byte
	for i, f := range pend {
		s.bondRetransmit.Inc()
		// Only a dead primary strands pinned frames, and its death ends the
		// session, so nothing here needs pinning.
		if err := s.sendFrame(f, [][]byte{hdr[:], f.buf}, false); err != nil {
			for _, g := range pend[i+1:] {
				wire.PutPayload(g.buf)
			}
			return
		}
	}
}

// sendSeq sends the stream's next sequenced frame (see sendFrame), pinned
// to the primary until the SYNACK arrives. parts[0] is a 12-byte header
// buffer, parts[1:] the payload; a FINQ has none.
func (st *Stream) sendSeq(fin bool, n int, parts [][]byte) error {
	f := sentFrame{stream: st.id, seq: st.nextSendSeq.Add(1) - 1, fin: fin, n: n}
	return st.session.sendFrame(f, parts, !st.synAcked.Load())
}

// memberFailed removes a dead secondary from the bond and resprays its
// unacknowledged frames over the survivors; duplicates the receiver
// already has are dropped by sequence in reassembly. A primary failure
// fails the whole session (the control plane lives there).
func (s *Session) memberFailed(m *member, err error) {
	if m.dead.Swap(true) {
		return
	}
	m.qcond.Broadcast()
	if m.index == 0 {
		_ = s.writeFailed(fmt.Errorf("tunnel: bond primary failed: %w", err))
		return
	}
	s.bondMu.Lock()
	cur := s.liveMembers()
	next := make([]*member, 0, len(cur))
	for _, x := range cur {
		if x != m {
			next = append(next, x)
		}
	}
	s.members.Store(&next)
	s.bondMu.Unlock()
	_ = m.conn.Close()
	s.bondFailovers.Inc()
	s.bondConnsGauge.Set(int64(len(next)))

	s.resprayFrames(m.takeRetained())
}

// addMember admits a new member connection into the bond (dial side wrote
// the BONDJOIN preface already; accept side adopted it via the registry).
func (s *Session) addMember(index int, conn net.Conn, w *wire.Writer) (*member, error) {
	if index <= 0 || index > 255 {
		return nil, fmt.Errorf("tunnel: bond conn index %d out of range", index)
	}
	s.bondMu.Lock()
	if s.isClosed() {
		s.bondMu.Unlock()
		return nil, s.closeErr()
	}
	cur := s.liveMembers()
	for _, x := range cur {
		if x.index == index {
			s.bondMu.Unlock()
			return nil, fmt.Errorf("tunnel: duplicate bond conn index %d", index)
		}
	}
	m := newMember(s, index, conn, w)
	next := make([]*member, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, m)
	s.members.Store(&next)
	// The caller starts the member's read loop; count it before shutdown
	// can see the member.
	s.readers.Add(1)
	s.bondMu.Unlock()
	s.bondConnsGauge.Set(int64(len(next)))
	return m, nil
}

// AddBondConn joins conn to the session as bond member index (1-based;
// the session's original connection is member 0). The dialing side calls
// it once per extra negotiated connection after the handshake exchanged
// the bond id. The session takes ownership of conn.
func (s *Session) AddBondConn(id BondID, index int, conn net.Conn) error {
	w := wire.NewWriterOpts(conn, wire.Options{Observer: s.flushObserver})
	var payload [17]byte
	copy(payload[:16], id[:])
	payload[16] = byte(index)
	if err := w.WriteControl(frameBONDJOIN, payload[:]); err != nil {
		_ = conn.Close()
		return fmt.Errorf("tunnel: bond join: %w", err)
	}
	m, err := s.addMember(index, conn, w)
	if err != nil {
		_ = conn.Close()
		return err
	}
	//lint:allow-leak readLoop is supervised by the member connection:
	// failover or session shutdown closes it and the loop exits.
	go s.readLoop(m, wire.NewReader(conn), nil)
	return nil
}

// adoptMember is the accept-side twin of AddBondConn: the BONDJOIN
// preface was already consumed by ServerConn, whose reader (with its
// buffered bytes) is handed over.
func (s *Session) adoptMember(index int, conn net.Conn, r *wire.Reader) error {
	w := wire.NewWriterOpts(conn, wire.Options{Observer: s.flushObserver})
	m, err := s.addMember(index, conn, w)
	if err != nil {
		return err
	}
	//lint:allow-leak readLoop is supervised by the member connection:
	// failover or session shutdown closes it and the loop exits.
	go s.readLoop(m, r, nil)
	return nil
}

// BondRegistry routes accepted bond-member connections to the session
// that negotiated them. The accepting side registers an expectation when
// its handshake grants a bond, then classifies every inbound connection
// with ServerConn.
type BondRegistry struct {
	mu sync.Mutex
	m  map[BondID]*bondEntry
}

type bondEntry struct {
	s         *Session
	remaining int
}

// NewBondRegistry returns an empty registry.
func NewBondRegistry() *BondRegistry {
	return &BondRegistry{m: make(map[BondID]*bondEntry)}
}

// Expect announces that up to extra member connections will arrive for
// id, to be adopted into s. The expectation dies with the session.
func (r *BondRegistry) Expect(id BondID, s *Session, extra int) {
	if extra <= 0 {
		return
	}
	r.mu.Lock()
	r.m[id] = &bondEntry{s: s, remaining: extra}
	r.mu.Unlock()
	//lint:allow-leak bounded by the session's lifetime: the goroutine
	// blocks only until the session's done channel closes.
	go func() {
		<-s.Done()
		r.mu.Lock()
		if e := r.m[id]; e != nil && e.s == s {
			delete(r.m, id)
		}
		r.mu.Unlock()
	}()
}

// claim resolves a BONDJOIN preface to its expected session.
func (r *BondRegistry) claim(id BondID) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[id]
	if e == nil {
		return nil, fmt.Errorf("tunnel: bond join for unknown bond")
	}
	e.remaining--
	if e.remaining <= 0 {
		delete(r.m, id)
	}
	return e.s, nil
}

// ServerConn starts the accepting side of a connection that is either a
// fresh session or a member joining an existing bond, telling the two
// apart by the first frame. A BONDJOIN preface adopts the connection into
// the session registered under its bond id and returns (nil, nil); any
// other first frame starts a normal server session that processes it as
// its first inbound frame — so a peer that never sends BONDJOIN gets
// exactly the Server behavior, a bond of one. The preface read is
// bounded by prefaceTimeout (0 = no bound) so an idle connection cannot
// park the acceptor. reg may be nil when bonding is disabled locally; join
// attempts are then refused.
func ServerConn(conn net.Conn, reg *BondRegistry, cfg Config, prefaceTimeout time.Duration) (*Session, error) {
	r := wire.NewReader(conn)
	if prefaceTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(prefaceTimeout))
	}
	frame, err := r.ReadFramePooled()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tunnel: read preface: %w", err)
	}
	if prefaceTimeout > 0 {
		_ = conn.SetReadDeadline(time.Time{})
	}
	if frame.Type != frameBONDJOIN {
		// Hand the reader and the already-read frame to a fresh session;
		// its readLoop dispatches the frame first and releases the lease.
		return newSession(conn, cfg, 2, r, &frame), nil
	}
	defer wire.PutPayload(frame.Payload)
	if len(frame.Payload) != 17 {
		_ = conn.Close()
		return nil, fmt.Errorf("tunnel: malformed BONDJOIN preface")
	}
	var id BondID
	copy(id[:], frame.Payload[:16])
	index := int(frame.Payload[16])
	if reg == nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tunnel: bond join refused: bonding disabled")
	}
	s, err := reg.claim(id)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := s.adoptMember(index, conn, r); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return nil, nil
}
