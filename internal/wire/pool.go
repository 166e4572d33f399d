package wire

import "sync"

// pooledPayloadCap is the capacity of pooled payload buffers. It covers
// the tunnel's largest DATAQ frame (a 64 KiB segment plus its 12-byte
// header) and every control payload with slack to spare; larger frames
// (rare on the hot path) fall back to the heap.
const pooledPayloadCap = 64<<10 + 128

// payloadPool holds *[pooledPayloadCap]byte rather than []byte: putting a
// pointer-shaped value into a sync.Pool stores it in the interface header
// directly, so neither Get nor Put allocates.
var payloadPool = sync.Pool{
	New: func() any { return new([pooledPayloadCap]byte) },
}

// GetPayload leases a length-n payload buffer from the pool, falling back
// to a fresh allocation when n exceeds the pooled capacity. The buffer is
// not zeroed. The caller owns it until it is handed to PutPayload.
func GetPayload(n int) []byte {
	if n > pooledPayloadCap {
		return make([]byte, n)
	}
	a := payloadPool.Get().(*[pooledPayloadCap]byte)
	return a[:n]
}

// PutPayload returns a buffer leased by GetPayload to the pool. Buffers
// that did not come from the pool (oversized fallbacks, or payloads from
// plain ReadFrame) are recognized by capacity and silently dropped, so
// callers may release unconditionally. Releasing the same buffer twice
// corrupts the pool; each lease must be released exactly once.
func PutPayload(p []byte) {
	if cap(p) != pooledPayloadCap {
		return
	}
	payloadPool.Put((*[pooledPayloadCap]byte)(p[:pooledPayloadCap]))
}
