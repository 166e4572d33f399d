package stage

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// The transfer protocol is request/response over a dedicated data
// stream. Each request is a small length-prefixed frame; a get response
// is a header frame followed by a run of checksummed chunks covering
// the requested byte range:
//
//	request:  uint32 len | op u8, hash str, offset i64, length i64, chunk u32
//	stat rsp: uint32 len | status u8, size i64
//	get rsp:  uint32 len | status u8, size i64
//	          then per chunk: uint32 n | sha256(chunk) 32B | n payload bytes
//
// The puller knows the blob's size from its StageRef and the exact byte
// range it asked for, so chunk framing stays in sync even across a chunk
// whose checksum fails — the bad span is recorded and re-requested after
// the response completes. A stat costs a round trip of its own, so Pull
// sends one only for a ref that carries no size; Serve still answers it
// for the pullers in a mixed-version grid that stat before every pull.
const (
	opGet  = 1
	opStat = 2

	statusOK       = 0
	statusNotFound = 1
	statusBad      = 2

	// maxRequestFrame bounds a request (op + hash + offsets); anything
	// bigger is a protocol violation.
	maxRequestFrame = 1 << 10
)

// Terminal pull errors: retrying cannot change the answer.
var (
	// ErrNotFound reports that the serving store does not hold the blob.
	ErrNotFound = errors.New("stage: blob not found")
	// ErrSizeMismatch reports that the serving store holds the blob at a
	// size other than the one the puller's ref names.
	ErrSizeMismatch = errors.New("stage: blob size differs from ref")
)

// armRead sets the idle read deadline on conn (idle <= 0 disables).
func armRead(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
}

// armWrite sets the idle write deadline on conn.
func armWrite(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetWriteDeadline(time.Now().Add(idle))
	}
}

// writeFrame writes one length-prefixed frame as a single Write.
func writeFrame(conn net.Conn, idle time.Duration, payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	armWrite(conn, idle)
	_, err := conn.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame of at most max bytes.
func readFrame(conn net.Conn, idle time.Duration, max int) ([]byte, error) {
	var hdr [4]byte
	armRead(conn, idle)
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int(n) > max {
		return nil, fmt.Errorf("stage: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	armRead(conn, idle)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Serve answers transfer requests on conn out of store until the peer
// closes the stream or stalls past the idle deadline. It is run by the
// proxy for every inbound stage stream.
func Serve(conn net.Conn, store *Store, cfg Config, reg *metrics.Registry) error {
	cfg = cfg.WithDefaults()
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	defer conn.Close()
	for {
		req, err := readFrame(conn, cfg.IdleTimeout, maxRequestFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		buf := wire.NewBuffer(req)
		op := buf.Uint8()
		hash := buf.String()
		offset := buf.Int64()
		length := buf.Int64()
		chunk := int(buf.Uint32())
		if err := buf.Err(); err != nil {
			return writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, 0))
		}
		switch op {
		case opStat:
			size, ok := store.Stat(hash)
			st := byte(statusOK)
			if !ok {
				st = statusNotFound
			}
			err = writeFrame(conn, cfg.IdleTimeout, statusFrame(st, size))
		case opGet:
			err = serveGet(conn, store, cfg, reg, hash, offset, length, chunk)
		default:
			err = writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, 0))
		}
		if err != nil {
			return err
		}
	}
}

func statusFrame(status byte, size int64) []byte {
	out := []byte{status}
	return wire.AppendInt64(out, size)
}

// bufferWriter is the vectored write surface a tunnel stream exposes:
// the segments are gathered into frames without an intermediate copy.
type bufferWriter interface {
	WriteBuffers(segs ...[]byte) (int64, error)
}

// serveGet streams the requested range as checksummed chunks, leased
// one at a time from the store. A memory-resident blob's loans alias
// its backing array, so on the vectored-write path (a bare tunnel
// stream) the bytes travel disk→store→wire with no intermediate copy:
// the chunk header and payload are gathered straight into the tunnel's
// pooled frame buffers. The assembled-frame fallback exists for
// fault-injection wrappers (which see the conn interface only) so they
// can corrupt a chunk without desynchronizing the framing.
func serveGet(conn net.Conn, store *Store, cfg Config, reg *metrics.Registry, hash string, offset, length int64, chunk int) error {
	size, ok := store.Stat(hash)
	if !ok {
		return writeFrame(conn, cfg.IdleTimeout, statusFrame(statusNotFound, 0))
	}
	if chunk <= 0 || chunk > maxChunkSize {
		chunk = cfg.ChunkSize
	}
	if offset < 0 || offset > size {
		return writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, size))
	}
	end := size
	if length > 0 && offset+length < size {
		end = offset + length
	}
	if err := writeFrame(conn, cfg.IdleTimeout, statusFrame(statusOK, size)); err != nil {
		return err
	}
	bw, _ := conn.(bufferWriter)
	var frame []byte
	if bw == nil {
		frame = make([]byte, 0, 4+sha256.Size+chunk)
	}
	var chdr [4 + sha256.Size]byte
	for pos := offset; pos < end; {
		n := int64(chunk)
		if pos+n > end {
			n = end - pos
		}
		loan, ok := store.LoanChunk(hash, pos, n)
		if !ok {
			// The blob vanished between the header and this chunk
			// (evicted with no spill tier). Breaking the connection
			// mid-response is the honest signal: the puller's framing
			// would desync on anything else, and its retry path re-asks.
			return fmt.Errorf("stage: blob %s evicted mid-transfer", short(hash))
		}
		payload := loan.Data
		sum := sha256.Sum256(payload)
		armWrite(conn, cfg.IdleTimeout)
		var err error
		if bw != nil {
			binary.BigEndian.PutUint32(chdr[:4], uint32(n))
			copy(chdr[4:], sum[:])
			_, err = bw.WriteBuffers(chdr[:], payload)
		} else {
			frame = frame[:0]
			frame = binary.BigEndian.AppendUint32(frame, uint32(n))
			frame = append(frame, sum[:]...)
			frame = append(frame, payload...)
			_, err = conn.Write(frame)
		}
		loan.Release()
		if err != nil {
			return err
		}
		reg.Counter(metrics.StageBytesSent).Add(n)
		pos += n
	}
	return nil
}

// Dialer opens a fresh transfer connection to the serving site. Pull
// calls it once per stripe and again after a link drop to resume.
type Dialer func(ctx context.Context) (net.Conn, error)

// span is a half-open byte range [off, end) still missing from a pull.
type span struct{ off, end int64 }

// emptyHash names the empty blob, the only one whose size is truly 0.
var emptyHash = Hash(nil)

// statSize asks the remote store for a blob's size, redialing after link
// failures within the pull's retry budget. A missing blob is terminal.
func statSize(ctx context.Context, dial Dialer, hash string, cfg Config) (int64, error) {
	var err error
	for round := 0; round <= cfg.PullRetries; round++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, cerr
		}
		var conn net.Conn
		if conn, err = dialWrapped(ctx, dial, cfg); err != nil {
			continue
		}
		size, ok, serr := statOn(conn, hash, cfg)
		conn.Close()
		switch {
		case serr != nil:
			err = serr
		case !ok:
			return 0, fmt.Errorf("stage: pull %s: %w", short(hash), ErrNotFound)
		default:
			return size, nil
		}
	}
	return 0, fmt.Errorf("stage: stat %s: %w", short(hash), err)
}

func statOn(conn net.Conn, hash string, cfg Config) (int64, bool, error) {
	req := []byte{opStat}
	req = wire.AppendString(req, hash)
	req = wire.AppendInt64(req, 0)
	req = wire.AppendInt64(req, 0)
	req = wire.AppendUint32(req, 0)
	if err := writeFrame(conn, cfg.IdleTimeout, req); err != nil {
		return 0, false, err
	}
	rsp, err := readFrame(conn, cfg.IdleTimeout, maxRequestFrame)
	if err != nil {
		return 0, false, err
	}
	buf := wire.NewBuffer(rsp)
	status := buf.Uint8()
	size := buf.Int64()
	if err := buf.Err(); err != nil {
		return 0, false, err
	}
	switch status {
	case statusOK:
		return size, true, nil
	case statusNotFound:
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("stage: stat rejected (status %d)", status)
	}
}

func dialWrapped(ctx context.Context, dial Dialer, cfg Config) (net.Conn, error) {
	conn, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	return conn, nil
}

// Pull fetches the blob named by hash, whose size the caller knows from
// its StageRef, from a remote store into dst. It stripes the byte range
// over parallel connections at once, each sending its get right behind
// its stream open, verifies every chunk checksum, re-requests corrupt
// chunks, and resumes from the bytes already received if a connection
// drops mid-transfer. A blob the remote store does not hold fails with
// ErrNotFound, one it holds at another size with ErrSizeMismatch; neither
// is retried. On success the reassembled blob is verified against hash
// before entering dst.
//
// A size of 0 for any blob but the empty one means the ref carries no
// size (an origin from before refs did forwards what its client sent),
// and Pull asks the remote store for it first.
func Pull(ctx context.Context, dial Dialer, hash string, size int64, dst *Store, cfg Config, reg *metrics.Registry) error {
	cfg = cfg.WithDefaults()
	if size < 0 {
		return fmt.Errorf("stage: pull %s: negative size %d", short(hash), size)
	}
	if size == 0 && hash != emptyHash {
		var err error
		if size, err = statSize(ctx, dial, hash, cfg); err != nil {
			return err
		}
	}
	if size == 0 {
		return dst.PutHashed(hash, nil)
	}
	// The first failed stripe cancels the rest, so a terminal answer is
	// not followed by the other stripes spending their retry budgets.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	buf := make([]byte, size)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, sp := range stripeRanges(size, int64(cfg.ChunkSize), cfg.Stripes) {
		wg.Add(1)
		go func(sp span) {
			defer wg.Done()
			err := pullRange(ctx, dial, hash, buf, sp, cfg, reg)
			if err == nil {
				return
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = err
				cancel()
			}
			mu.Unlock()
		}(sp)
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("stage: pull %s: %w", short(hash), firstErr)
	}
	if err := dst.PutHashed(hash, buf); err != nil {
		return err
	}
	reg.Counter(metrics.StagePulls).Inc()
	return nil
}

// stripeRanges splits [0, size) into up to stripes contiguous ranges of
// at least one chunk each, so tiny blobs do not fan out into empty
// streams.
func stripeRanges(size, chunk int64, stripes int) []span {
	if int64(stripes) > (size+chunk-1)/chunk {
		stripes = int((size + chunk - 1) / chunk)
	}
	if stripes < 1 {
		stripes = 1
	}
	per := size / int64(stripes)
	var out []span
	off := int64(0)
	for i := 0; i < stripes; i++ {
		end := off + per
		if i == stripes-1 {
			end = size
		}
		out = append(out, span{off, end})
		off = end
	}
	return out
}

// pullRange fetches one stripe's byte range, retrying corrupt chunks
// and redialing after link drops until the range is complete, the retry
// budget runs out, or the serving store gives a terminal answer.
func pullRange(ctx context.Context, dial Dialer, hash string, buf []byte, sp span, cfg Config, reg *metrics.Registry) error {
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	missing := []span{sp}
	received := int64(0)
	var lastErr error
	for round := 0; len(missing) > 0; round++ {
		if round > cfg.PullRetries {
			if lastErr == nil {
				lastErr = errors.New("checksum retries exhausted")
			}
			return fmt.Errorf("range [%d,%d) incomplete after %d rounds: %w", sp.off, sp.end, round, lastErr)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if conn == nil {
			var err error
			conn, err = dialWrapped(ctx, dial, cfg)
			if err != nil {
				lastErr = err
				continue
			}
			if received > 0 {
				// A redial with bytes in hand is a resume, not a
				// restart: the request below carries the offset.
				reg.Counter(metrics.StageResumes).Inc()
			}
		}
		if round > 0 {
			reg.Counter(metrics.StageChunkRetries).Add(int64(len(missing)))
		}
		var next []span
		for i, m := range missing {
			bad, got, err := requestRange(conn, hash, m, buf, cfg, reg)
			if errors.Is(err, ErrNotFound) || errors.Is(err, ErrSizeMismatch) {
				return err
			}
			received += got
			next = append(next, bad...)
			if err != nil {
				// Link dropped mid-response: everything not yet read
				// in this and later spans is still missing.
				if got > 0 || len(bad) > 0 {
					rem := m.off + got
					for _, b := range bad {
						rem += b.end - b.off
					}
					if rem < m.end {
						next = append(next, span{rem, m.end})
					}
				} else {
					next = append(next, m)
				}
				next = append(next, missing[i+1:]...)
				conn.Close()
				conn = nil
				lastErr = err
				break
			}
		}
		missing = next
	}
	return nil
}

// requestRange issues one get for [m.off, m.end) on conn and reads the
// chunk stream into buf, which is sized to the whole blob. It returns the
// spans of chunks that failed their checksum, the verified byte count
// (contiguous from m.off until the first bad chunk, then continuing after
// it), and a non-nil error when the connection itself broke or the store
// answered ErrNotFound or ErrSizeMismatch.
func requestRange(conn net.Conn, hash string, m span, buf []byte, cfg Config, reg *metrics.Registry) ([]span, int64, error) {
	req := []byte{opGet}
	req = wire.AppendString(req, hash)
	req = wire.AppendInt64(req, m.off)
	req = wire.AppendInt64(req, m.end-m.off)
	req = wire.AppendUint32(req, uint32(cfg.ChunkSize))
	if err := writeFrame(conn, cfg.IdleTimeout, req); err != nil {
		return nil, 0, err
	}
	hdr, err := readFrame(conn, cfg.IdleTimeout, maxRequestFrame)
	if err != nil {
		return nil, 0, err
	}
	hb := wire.NewBuffer(hdr)
	status := hb.Uint8()
	size := hb.Int64()
	if err := hb.Err(); err != nil {
		return nil, 0, err
	}
	if status == statusNotFound {
		return nil, 0, ErrNotFound
	}
	if status != statusOK {
		return nil, 0, fmt.Errorf("stage: get rejected (status %d)", status)
	}
	if size != int64(len(buf)) {
		return nil, 0, fmt.Errorf("%w: ref names %d bytes, store holds %d", ErrSizeMismatch, len(buf), size)
	}
	var (
		bad      []span
		verified int64
		chdr     [4 + sha256.Size]byte
	)
	for pos := m.off; pos < m.end; {
		armRead(conn, cfg.IdleTimeout)
		if _, err := io.ReadFull(conn, chdr[:]); err != nil {
			return bad, verified, err
		}
		n := int64(binary.BigEndian.Uint32(chdr[:4]))
		if n <= 0 || pos+n > m.end || n > maxChunkSize {
			return bad, verified, fmt.Errorf("stage: bad chunk length %d at offset %d", n, pos)
		}
		armRead(conn, cfg.IdleTimeout)
		if _, err := io.ReadFull(conn, buf[pos:pos+n]); err != nil {
			return bad, verified, err
		}
		sum := sha256.Sum256(buf[pos : pos+n])
		if [sha256.Size]byte(chdr[4:]) != sum {
			// The chunk is framed correctly but its payload is wrong:
			// record the span and keep reading — the stream is still
			// in sync, so later chunks are usable and only this span
			// is re-requested.
			reg.Counter(metrics.StageCorruptChunks).Inc()
			bad = append(bad, span{pos, pos + n})
		} else {
			reg.Counter(metrics.StageBytesReceived).Add(n)
			verified += n
		}
		pos += n
	}
	return bad, verified, nil
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
