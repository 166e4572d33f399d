package tunnel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errDuplicateStream reports a SYN reusing a live stream id (a protocol
// violation; insert distinguishes it from the table simply being full).
var errDuplicateStream = errors.New("tunnel: duplicate stream id")

// tableShards is the shard count of streamTable. Stream ids alternate
// parity per side and increment by two, so id/2 modulo a small power of
// two spreads ids of one side evenly.
const tableShards = 8

// streamTable maps stream ids to streams. It replaces a single
// session-wide mutex on the frame dispatch path: every inbound data frame
// does one lookup, and under a global lock that lookup serializes against
// stream setup/teardown and every other frame. Lookups here take only a
// per-shard read lock, and the live count is maintained as an atomic so
// limit checks and NumStreams never touch the shards at all.
type streamTable struct {
	count  atomic.Int64
	shards [tableShards]tableShard
}

type tableShard struct {
	mu sync.RWMutex
	m  map[uint32]*Stream
}

func newStreamTable() *streamTable {
	t := &streamTable{}
	for i := range t.shards {
		//lint:allow-guardedby shard init inside the table's own constructor, before it is shared
		t.shards[i].m = make(map[uint32]*Stream)
	}
	return t
}

func (t *streamTable) shard(id uint32) *tableShard {
	return &t.shards[(id/2)%tableShards]
}

// insert registers st under id, enforcing max live streams. The count is
// reserved before touching the shard and rolled back on failure, so the
// limit is never overshot even under concurrent inserts.
func (t *streamTable) insert(id uint32, st *Stream, max int) error {
	if t.count.Add(1) > int64(max) {
		t.count.Add(-1)
		return ErrTooManyStreams
	}
	sh := t.shard(id)
	sh.mu.Lock()
	if _, dup := sh.m[id]; dup {
		sh.mu.Unlock()
		t.count.Add(-1)
		return errDuplicateStream
	}
	sh.m[id] = st
	sh.mu.Unlock()
	return nil
}

// get returns the stream registered under id, or nil.
func (t *streamTable) get(id uint32) *Stream {
	sh := t.shard(id)
	sh.mu.RLock()
	st := sh.m[id]
	sh.mu.RUnlock()
	return st
}

// remove deletes id. It is idempotent: only an entry actually present
// releases a count reservation.
func (t *streamTable) remove(id uint32) {
	sh := t.shard(id)
	sh.mu.Lock()
	_, present := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if present {
		t.count.Add(-1)
	}
}

// len returns the number of live streams (including in-flight inserts
// that have reserved a slot).
func (t *streamTable) len() int { return int(t.count.Load()) }

// snapshot returns all live streams.
func (t *streamTable) snapshot() []*Stream {
	out := make([]*Stream, 0, t.len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, st := range sh.m {
			out = append(out, st)
		}
		sh.mu.RUnlock()
	}
	return out
}
