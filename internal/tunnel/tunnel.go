// Package tunnel implements a stream multiplexer: many logical byte
// streams carried over one underlying connection — or, when a bond is
// negotiated, over several parallel connections joined into one logical
// session.
//
// The paper's proxy keeps a single secure (TLS) connection per remote site
// and multiplexes all grid traffic over it — control messages, spliced
// application data, and the virtual-slave MPI channels ("This mapping done
// by the proxy ... can be seen as a multiplexion of the communication
// between the source and the destination"). This package provides that
// multiplexer with per-stream flow control so one bulk stream cannot starve
// the control channel. Because that one connection is the global bottleneck
// between two sites, a session may bond k connections. Every stream sends
// sequenced data frames (DATAQ/FINQ), whatever the bond width: a single
// connection is a bond of one. Frames go to the member with the least
// outstanding bytes and are reassembled in order per stream on the far
// side (see bond.go), and every per-stream window is sized from measured
// RTT and delivery rate, clamped to [WindowMin, WindowMax] (see flow.go).
//
// Wire format: every tunnel frame is a wire.Frame whose payload begins with
// a 4-byte big-endian stream id (bond join/ack frames excepted; see below).
package tunnel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// Tunnel frame types (wire.Frame.Type). They occupy 0x10.. so they can
// never be confused with the control protocol's 0x01.
const (
	frameSYN    byte = 0x10 // open stream; payload after id = metadata
	frameSYNACK byte = 0x11 // accept stream
	frameRST    byte = 0x12 // refuse/abort stream
	// 0x13 and 0x14 were the unsequenced DATA/FIN of older builds. They
	// are retired: a peer still sending them ends the session as a
	// sender of unknown frame types.
	frameWINDOW byte = 0x15 // receive-window credit grant (uint32 delta)
	framePING   byte = 0x16 // liveness probe (8-byte nonce)
	framePONG   byte = 0x17 // probe reply
	frameGOAWAY byte = 0x18 // session shutdown

	// Bonding and data frames. BONDJOIN is the first (and only raw)
	// frame on a joining member connection: [bond id 16B][conn index u8].
	// BONDACK carries cumulative per-connection delivery counts back to
	// the sender: [count u8] then count × ([conn index u8][received u64]).
	// DATAQ/FINQ carry every stream's data and half-close:
	// [stream id u32][stream seq u64][payload...].
	frameBONDJOIN byte = 0x19
	frameBONDACK  byte = 0x1A
	frameDATAQ    byte = 0x1B
	frameFINQ     byte = 0x1C
)

// Flow-control and segmentation defaults.
const (
	// DefaultWindow is the receive credit every stream starts with on
	// both ends, whatever either end's [WindowMin, WindowMax]: the two
	// ends agree on it without an exchange, and the receiver's grants
	// then move the window to its own clamped target.
	DefaultWindow = 256 << 10
	// maxSegment is the largest DATAQ payload per frame.
	maxSegment = 64 << 10

	// DefaultWindowMin / DefaultWindowMax clamp the per-stream window: it
	// never shrinks below Min even when the estimators read a tiny BDP,
	// and never grows beyond Max no matter how fat the pipe looks.
	DefaultWindowMin = 64 << 10
	DefaultWindowMax = 4 << 20
	// DefaultBDPGain multiplies the measured bandwidth-delay product
	// when sizing the adaptive window, leaving headroom for delivery-rate
	// growth the way BBR's cwnd_gain does.
	DefaultBDPGain = 2.0
	// DefaultMemBudget caps the sum of adaptive per-stream windows for
	// one session, so a session with many streams cannot buffer
	// unboundedly at the receiver.
	DefaultMemBudget = 32 << 20
	// DefaultProbeInterval is the cadence of the RTT/bandwidth prober.
	DefaultProbeInterval = 25 * time.Millisecond

	// bondAckEvery is how many sequenced frames a receiver lets
	// accumulate on one member connection before pushing a BONDACK;
	// stragglers are swept by the prober tick.
	bondAckEvery = 16

	// writeFailGrace is how long the read loop of a session whose primary
	// write failed gets to reach the peer's GOAWAY or EOF (see
	// writeFailed). When the peer's hang-up is what failed the write, its
	// goodbye has already arrived and the read loop only has to drain it:
	// 46 µs median, 807 µs worst over 200 runs of
	// TestWriteFailureAfterGoawayEndsSessionClosed under -race on a 2-core
	// Xeon. 250 ms leaves two orders of magnitude for a loaded host, and
	// on a link that really broke it delays the teardown by a fraction of
	// the seconds heartbeats take to notice.
	writeFailGrace = 250 * time.Millisecond
)

// Package errors.
var (
	// ErrSessionClosed is returned after the session has shut down.
	ErrSessionClosed = errors.New("tunnel: session closed")
	// ErrStreamClosed is returned for operations on a closed stream.
	ErrStreamClosed = errors.New("tunnel: stream closed")
	// ErrStreamRefused is returned by the first Read, Write or Close of a
	// stream the peer refused (accept backlog or stream table full).
	ErrStreamRefused = errors.New("tunnel: stream refused by peer")
	// ErrTooManyStreams is returned when the configured stream limit is
	// reached.
	ErrTooManyStreams = errors.New("tunnel: too many streams")
)

// Config parameterizes a Session.
type Config struct {
	// MaxStreams bounds concurrently open streams. Zero means 1024.
	MaxStreams int
	// AcceptBacklog bounds streams opened by the peer but not yet
	// Accept()ed. Zero means 256 (an MPI launch can open a stream per
	// rank nearly simultaneously).
	AcceptBacklog int

	// WindowMin / WindowMax clamp the per-stream receive window. A
	// background prober measures per-connection RTT (PING) and delivery
	// rate, and WINDOW grants are sized to BDPGain × bandwidth × min-RTT,
	// gain-cycled and clamped to [WindowMin, WindowMax] and by MemBudget
	// across the session's streams. Every stream starts with
	// DefaultWindow of credit whatever the range, so the two ends of a
	// session may clamp differently; the window target starts at
	// DefaultWindow clamped into the range. WindowMin == WindowMax is a
	// static window. Zero means DefaultWindowMin / DefaultWindowMax.
	WindowMin int
	WindowMax int
	// BDPGain scales the measured BDP when sizing the window. Zero means
	// DefaultBDPGain.
	BDPGain float64
	// MemBudget caps the sum of adaptive windows across the session's
	// live streams. Zero means DefaultMemBudget; negative disables the
	// clamp.
	MemBudget int64
	// ProbeInterval is the estimator cadence. Zero means
	// DefaultProbeInterval.
	ProbeInterval time.Duration

	// BondConns is how many parallel connections a bonded peer link
	// uses. The session itself never dials: the value is carried here so
	// the dialing/accepting layers negotiate from one config (0 or 1
	// means a single connection, i.e. no bond).
	BondConns int

	// Metrics receives tunnel counters; may be nil.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 256
	}
	if c.WindowMin <= 0 {
		c.WindowMin = DefaultWindowMin
	}
	if c.WindowMax <= 0 {
		c.WindowMax = DefaultWindowMax
	}
	// The WINDOW frame carries a uint32 delta and grants never exceed
	// one target, so the target itself must fit comfortably.
	if c.WindowMax > 1<<30 {
		c.WindowMax = 1 << 30
	}
	if c.WindowMax < c.WindowMin {
		c.WindowMax = c.WindowMin
	}
	if c.BDPGain <= 0 {
		c.BDPGain = DefaultBDPGain
	}
	if c.MemBudget == 0 {
		c.MemBudget = DefaultMemBudget
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	return c
}

// initialTarget is the window target until the estimators have samples.
func (c Config) initialTarget() int {
	return min(max(DefaultWindow, c.WindowMin), c.WindowMax)
}

// pongWaiter tracks one outstanding PING. Callers of Ping wait on ch;
// prober probes (ch nil) exist only so the PONG handler can attribute the
// RTT sample to the member connection it arrives on.
type pongWaiter struct {
	ch     chan struct{}
	sentAt time.Time
}

// Session multiplexes streams over one or more member connections. Create
// one with Client, Server, or ServerConn; the two sides allocate odd and
// even stream ids respectively so ids never collide.
type Session struct {
	conn net.Conn
	cfg  Config
	// w is the primary member's writer; the whole control plane rides
	// it.
	w *wire.Writer

	// members is the immutable snapshot of live member connections,
	// members[0] being the primary. Replaced wholesale (under bondMu) on
	// join and failover so the spray path reads it with one atomic load
	// and never holds a lock across conn I/O.
	members atomic.Pointer[[]*member]
	// bondMu serializes membership changes only; it is never held across
	// I/O.
	bondMu sync.Mutex

	// table holds live streams; frame dispatch looks streams up through
	// it without touching s.mu (which guards only the cold state below).
	table *streamTable
	// Hot-path counters resolved once at session setup; the registry map
	// lookup is too expensive per data frame.
	bytesTunneled  *metrics.Counter
	streamsOpened  *metrics.Counter
	bondFailovers  *metrics.Counter
	bondRetransmit *metrics.Counter
	bondConnsGauge *metrics.Gauge
	rttGauge       *metrics.Gauge
	// flushObserver feeds every member writer's FlushStats into the same
	// counters.
	flushObserver func(wire.FlushStats)

	// flow is the adaptive window estimator state (flow.go). delivered
	// counts all in-order stream bytes handed to receive buffers; the
	// prober differentiates it into a delivery rate.
	flow      flowState
	delivered atomic.Int64

	// pingSeq generates unique probe nonces.
	pingSeq atomic.Uint64

	mu     sync.Mutex
	nextID uint32
	err    error
	closed bool
	pongs  map[uint64]*pongWaiter
	// writeErr is the first failed write on the primary connection; the
	// read loop turns it into the session's error unless the peer's
	// GOAWAY or EOF shows the peer simply hung up first.
	writeErr error

	acceptCh chan *Stream
	done     chan struct{}
	closeOne sync.Once
	// readers counts member read loops. Each is added before its member
	// is visible to shutdown, so Close can wait for all of them.
	readers sync.WaitGroup
}

// Client starts a session on the dialing side of conn.
func Client(conn net.Conn, cfg Config) *Session { return newSession(conn, cfg, 1, nil, nil) }

// Server starts a session on the accepting side of conn.
func Server(conn net.Conn, cfg Config) *Session { return newSession(conn, cfg, 2, nil, nil) }

// newSession builds a session whose primary member wraps conn. A non-nil
// reader (with an optional already-read first frame) hands off a
// connection whose initial bytes were consumed by ServerConn's preface
// classification.
func newSession(conn net.Conn, cfg Config, firstID uint32, r *wire.Reader, first *wire.Frame) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		conn:           conn,
		cfg:            cfg,
		table:          newStreamTable(),
		bytesTunneled:  cfg.Metrics.Counter(metrics.BytesTunneled),
		streamsOpened:  cfg.Metrics.Counter(metrics.StreamsOpened),
		bondFailovers:  cfg.Metrics.Counter(metrics.TunnelBondFailovers),
		bondRetransmit: cfg.Metrics.Counter(metrics.TunnelBondRetransmits),
		bondConnsGauge: cfg.Metrics.Gauge(metrics.TunnelBondConns),
		rttGauge:       cfg.Metrics.Gauge(metrics.TunnelRTTMicros),
		nextID:         firstID,
		acceptCh:       make(chan *Stream, cfg.AcceptBacklog),
		done:           make(chan struct{}),
		pongs:          make(map[uint64]*pongWaiter),
	}
	s.flow.init(cfg)
	flushes := cfg.Metrics.Counter(metrics.TunnelFlushes)
	flushBytes := cfg.Metrics.Counter(metrics.TunnelFlushBytes)
	batchFrames := cfg.Metrics.Counter(metrics.TunnelBatchFrames)
	batchControl := cfg.Metrics.Counter(metrics.TunnelBatchControl)
	s.flushObserver = func(fs wire.FlushStats) {
		flushes.Add(int64(fs.Writes))
		flushBytes.Add(int64(fs.Bytes))
		batchFrames.Add(int64(fs.Frames))
		batchControl.Add(int64(fs.Control))
	}
	s.w = wire.NewWriterOpts(conn, wire.Options{Observer: s.flushObserver})
	primary := newMember(s, 0, conn, s.w)
	ms := []*member{primary}
	s.members.Store(&ms)
	s.bondConnsGauge.Set(1)
	if r == nil {
		r = wire.NewReader(conn)
	}
	s.readers.Add(1)
	//lint:allow-leak readLoop is supervised by the connection, not a
	// context: Close (and any peer disconnect) closes conn, the blocked
	// ReadFrame fails, and the loop exits.
	go s.readLoop(primary, r, first)
	//lint:allow-leak probeLoop is supervised by the session: it selects
	// on s.done every tick and exits when the session shuts down.
	go s.probeLoop()
	return s
}

// liveMembers returns the current membership snapshot (never empty; the
// primary stays listed even while failing, since its death kills the
// session).
func (s *Session) liveMembers() []*member { return *s.members.Load() }

// BondWidth reports the number of live member connections (1 for a
// session that never bonded).
func (s *Session) BondWidth() int { return len(s.liveMembers()) }

// SmoothedRTT returns the smallest smoothed RTT measured across live
// member connections, or 0 before any probe completed.
func (s *Session) SmoothedRTT() time.Duration {
	best := int64(0)
	for _, m := range s.liveMembers() {
		if v := m.srttMicros.Load(); v > 0 && (best == 0 || v < best) {
			best = v
		}
	}
	return time.Duration(best) * time.Microsecond
}

// Open creates a new stream to the peer, passing opaque metadata the
// acceptor can inspect with Stream.Meta. It returns as soon as the SYN is
// on the wire, without waiting for the SYNACK: the caller's first bytes
// follow the SYN on the same ordered connection, and the peer credits the
// initial window when the SYN creates its side of the stream. A refusal
// arrives later as an RST and fails the stream with ErrStreamRefused on
// its next Read, Write or Close. ctx is consulted only before the SYN.
func (s *Session) Open(ctx context.Context, meta []byte) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = ErrSessionClosed
		}
		return nil, err
	}
	id := s.nextID
	s.nextID += 2
	s.mu.Unlock()

	st := newStream(s, id)
	if err := s.table.insert(id, st, s.cfg.MaxStreams); err != nil {
		return nil, err
	}
	// Re-check closed now that the stream is visible: a concurrent
	// shutdown either sees the stream in its snapshot or we clean up here.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.table.remove(id)
		return nil, s.closeErr()
	}

	payload := make([]byte, 0, 4+len(meta))
	payload = wire.AppendUint32(payload, id)
	payload = append(payload, meta...)
	if err := s.w.WriteControl(frameSYN, payload); err != nil {
		s.removeStream(id)
		return nil, s.writeFailed(fmt.Errorf("tunnel: send SYN: %w", err))
	}
	s.streamsOpened.Inc()
	return st, nil
}

// Accept returns the next stream opened by the peer.
func (s *Session) Accept(ctx context.Context) (*Stream, error) {
	select {
	case st := <-s.acceptCh:
		return st, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		// Streams may have been queued before shutdown.
		select {
		case st := <-s.acceptCh:
			return st, nil
		default:
		}
		return nil, s.closeErr()
	}
}

// Ping round-trips a probe through the peer. It rides the control lane,
// so it measures peer liveness rather than bulk-queue depth.
func (s *Session) Ping(ctx context.Context) error {
	// A session-scoped sequence makes nonces collision-free; wall-clock
	// nonces collided for concurrent pings within one clock tick, leaving
	// one caller waiting for a pong that was consumed by the other.
	nonce := s.pingSeq.Add(1)
	waiter := &pongWaiter{ch: make(chan struct{}, 1), sentAt: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.closeErr()
	}
	s.pongs[nonce] = waiter
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pongs, nonce)
		s.mu.Unlock()
	}()
	if err := s.w.WriteControl(framePING, wire.AppendUint64(nil, nonce)); err != nil {
		return s.writeFailed(fmt.Errorf("tunnel: send PING: %w", err))
	}
	select {
	case <-waiter.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return s.closeErr()
	}
}

// NumStreams returns the number of currently open streams.
func (s *Session) NumStreams() int { return s.table.len() }

// Close shuts the session down: all streams fail, the underlying
// connections are closed. It returns once every member's read loop has
// stopped, so no frame is dispatched and no stream created after it.
func (s *Session) Close() error {
	err := s.shutdown(ErrSessionClosed, true)
	s.readers.Wait()
	return err
}

// Done returns a channel closed when the session terminates.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the error that terminated the session, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == ErrSessionClosed {
		return nil
	}
	return s.err
}

func (s *Session) closeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrSessionClosed
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// writeFailed handles a failed write on the primary connection and
// returns err. A write error alone cannot tell a broken link from a peer
// that sent GOAWAY and closed: that peer makes our next write fail before
// our read loop has reached its GOAWAY or EOF. So the session is not torn
// down here. The first error is recorded and the read loop gets
// writeFailGrace to reach the peer's goodbye, ending the session as
// ErrSessionClosed, or with this error if the read side fails any other
// way; a read loop that has not ended the session by then is cut off.
func (s *Session) writeFailed(err error) error {
	s.mu.Lock()
	first := s.writeErr == nil && !s.closed
	if first {
		s.writeErr = err
	}
	s.mu.Unlock()
	if first {
		// A no-op if the read loop ended the session first.
		time.AfterFunc(writeFailGrace, func() { _ = s.shutdown(err, false) })
	}
	return err
}

// reply writes one control frame from the read loop on the member the
// request arrived on. A failed reply is not a protocol violation, so it
// never ends the session from here: a secondary fails over, the primary
// goes through writeFailed.
func (s *Session) reply(m *member, frameType byte, payload []byte) {
	err := m.w.WriteControl(frameType, payload)
	switch {
	case err == nil:
	case m.index != 0:
		s.memberFailed(m, err)
	default:
		_ = s.writeFailed(fmt.Errorf("tunnel: send reply %#x: %w", frameType, err))
	}
}

func (s *Session) shutdown(err error, sendGoaway bool) error {
	s.closeOne.Do(func() {
		if sendGoaway {
			_ = s.w.WriteControl(frameGOAWAY, nil)
		}
		s.mu.Lock()
		s.closed = true
		s.err = err
		s.mu.Unlock()
		// Snapshot only after the closed flag is visible: an Open or
		// handleSYN that missed the flag has already inserted its stream
		// (so it appears here); one that saw it cleans up after itself.
		// Every stream leaves the table, so a dead session counts none.
		for _, st := range s.table.snapshot() {
			st.closeWithError(err)
			s.table.remove(st.id)
		}
		close(s.done)
		// The membership snapshot is likewise taken after closed is set:
		// addMember re-checks under bondMu and refuses, so every member
		// either appears here or was never admitted.
		s.bondMu.Lock()
		ms := s.liveMembers()
		s.bondMu.Unlock()
		for _, m := range ms {
			// Mark dead and wake the sendLoop so it drains its queue; with
			// every member dead the drain resprays into pickMember == nil,
			// which releases the stranded pooled buffers.
			m.dead.Store(true)
			m.qcond.Broadcast()
			_ = m.conn.Close()
			m.releaseAll()
		}
	})
	return nil
}

func (s *Session) removeStream(id uint32) { s.table.remove(id) }

// readLoop dispatches frames inbound on one member connection until it
// dies. It reads through the wire payload pool: the loop is the single
// owner of each leased payload — every dispatch path that keeps bytes
// copies them before returning (deliverSeq copies in-order data into the
// recv buffer and out-of-order segments into buffers of their own,
// handleSYN copies meta, the PONG echo is coalesced into the writer
// before WriteControl returns) — so the lease is released here,
// unconditionally, after dispatch. A secondary member's death fails over;
// the primary's death (or any protocol error) kills the session.
func (s *Session) readLoop(m *member, r *wire.Reader, first *wire.Frame) {
	defer s.readers.Done()
	if first != nil {
		derr := s.dispatch(m, *first)
		wire.PutPayload(first.Payload)
		if derr != nil {
			_ = s.shutdown(derr, false)
			return
		}
	}
	for {
		frame, err := r.ReadFramePooled()
		if err != nil {
			s.mu.Lock()
			werr := s.writeErr
			s.mu.Unlock()
			switch {
			case m.index != 0 && !s.isClosed():
				s.memberFailed(m, err)
			case errors.Is(err, io.EOF):
				_ = s.shutdown(ErrSessionClosed, false)
			case werr != nil:
				_ = s.shutdown(werr, false)
			default:
				_ = s.shutdown(fmt.Errorf("tunnel: read: %w", err), false)
			}
			return
		}
		derr := s.dispatch(m, frame)
		wire.PutPayload(frame.Payload)
		if derr != nil {
			_ = s.shutdown(derr, false)
			return
		}
	}
}

func (s *Session) dispatch(m *member, frame wire.Frame) error {
	switch frame.Type {
	case framePING:
		// Echo on the member the probe arrived on, so the round trip
		// measures that specific connection.
		s.reply(m, framePONG, frame.Payload)
		return nil
	case framePONG:
		if len(frame.Payload) >= 8 {
			nonce := wire.NewBuffer(frame.Payload).Uint64()
			s.mu.Lock()
			waiter := s.pongs[nonce]
			if waiter != nil && waiter.ch == nil {
				// Prober probes are one-shot; callers of Ping delete
				// their own entries.
				delete(s.pongs, nonce)
			}
			s.mu.Unlock()
			if waiter != nil {
				m.recordRTT(time.Since(waiter.sentAt))
				s.flow.observeRTT(time.Since(waiter.sentAt))
				if waiter.ch != nil {
					select {
					case waiter.ch <- struct{}{}:
					default:
					}
				}
			}
		}
		return nil
	case frameGOAWAY:
		_ = s.shutdown(ErrSessionClosed, false)
		return nil
	case frameBONDJOIN:
		// Joins are consumed by ServerConn before a session exists;
		// inside an established session the type is a violation.
		return fmt.Errorf("tunnel: unexpected BONDJOIN mid-session")
	case frameBONDACK:
		return s.handleBondAck(frame.Payload)
	}

	if len(frame.Payload) < 4 {
		return fmt.Errorf("tunnel: short frame type %#x", frame.Type)
	}
	id := wire.NewBuffer(frame.Payload).Uint32()
	rest := frame.Payload[4:]

	switch frame.Type {
	case frameSYN:
		return s.handleSYN(m, id, rest)
	case frameSYNACK:
		// A SYNACK for a stream closed before it arrived finds nothing.
		if st := s.table.get(id); st != nil {
			st.synAcked.Store(true)
		}
		return nil
	case frameRST:
		// The peer sends RST only to refuse a SYN, so it always precedes
		// any SYNACK for the stream. The stream leaves the table before
		// its caller can see the refusal.
		if st := s.table.get(id); st != nil {
			s.removeStream(id)
			st.closeWithError(ErrStreamRefused)
		}
		return nil
	case frameWINDOW:
		if st := s.table.get(id); st != nil && len(rest) >= 4 {
			delta := wire.NewBuffer(rest).Uint32()
			st.grantSendWindow(int(delta))
		}
		return nil
	case frameDATAQ, frameFINQ:
		// An empty DATAQ costs no window credit, so a peer could park
		// them without bound. A FINQ carries no data at all.
		fin := frame.Type == frameFINQ
		if len(rest) < 8 || (len(rest) == 8) != fin {
			return fmt.Errorf("tunnel: malformed %#x for stream %d", frame.Type, id)
		}
		// Count the arrival before the stream lookup: the sender's
		// retention drains on these acks even when the local stream is
		// already gone.
		m.countSeqArrival(s)
		seq := wire.NewBuffer(rest).Uint64()
		data := rest[8:]
		st := s.table.get(id)
		if st == nil {
			// Stream already gone; drop silently (late data after
			// local close is normal).
			return nil
		}
		s.bytesTunneled.Add(int64(len(data)))
		s.delivered.Add(int64(len(data)))
		return st.deliverSeq(seq, data, fin)
	default:
		return fmt.Errorf("tunnel: unknown frame type %#x", frame.Type)
	}
}

// handleSYN creates the accepting side of a stream, crediting it the
// initial window at once: the opener does not wait for the SYNACK, so its
// data may already be queued right behind this frame.
func (s *Session) handleSYN(m *member, id uint32, meta []byte) error {
	st := newStream(s, id)
	st.meta = append([]byte(nil), meta...)
	st.accepted = true
	st.synAcked.Store(true)
	switch err := s.table.insert(id, st, s.cfg.MaxStreams); {
	case errors.Is(err, errDuplicateStream):
		return fmt.Errorf("tunnel: duplicate SYN for stream %d", id)
	case errors.Is(err, ErrTooManyStreams):
		s.reply(m, frameRST, wire.AppendUint32(nil, id))
		return nil
	}
	// Same closed re-check as Open: either the shutdown snapshot saw our
	// insert, or we saw the flag and unwind.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.table.remove(id)
		return nil
	}

	select {
	case s.acceptCh <- st:
		s.streamsOpened.Inc()
		s.reply(m, frameSYNACK, wire.AppendUint32(nil, id))
	default:
		// Backlog full: refuse. Data that followed the SYN finds no
		// stream and is dropped.
		s.removeStream(id)
		s.reply(m, frameRST, wire.AppendUint32(nil, id))
	}
	return nil
}
