package peerlink

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
)

// ErrRefused is the dial error when the remote refused or released the
// new session on purpose before the handshake finished: mostly a
// crossing dial it settled in favour of the session it dialed itself
// (both ends keep that one), else its own cache pressure. It is not
// evidence against the site: the cache records no breaker failure and
// adopts the session it holds for the site, if any.
var ErrRefused = errors.New("peerlink: remote refused the session")

// errInsertClosed is a dial's result when the session died before the
// cache could insert it.
var errInsertClosed = errors.New("peerlink: session closed before it was cached")

// cacheEntry is one live session in the cache.
type cacheEntry[T Session] struct {
	sess    T
	lastUse time.Time
	// outbound marks a session this end dialed; crossing dials keep the
	// one dialed by the lexically lower site (see keepsNewLocked).
	outbound bool
	// refs counts outstanding Get checkouts. The LRU evictor and the
	// idle sweep skip referenced sessions — closing a tunnel out from
	// under an in-flight RPC (a status fan-out wider than MaxTunnels
	// does this reliably) turns cache pressure into spurious peer
	// failures. Release returns a checkout.
	refs int
	// misses counts consecutive failed heartbeats; probing marks a
	// probe in flight, so a slow one is never overlapped.
	misses  int
	probing bool
}

// pin is a configured peer: its entries are exempt from eviction, and
// losing one schedules a redial at addr.
type pin struct {
	addr string
	// lost is set when the site's entry is removed; the next entry
	// inserted counts as a reconnect.
	lost bool
	// failures counts consecutive failed redials since the loss.
	failures int
	// redialAt is when the next redial is due (by Config.Now); zero
	// while the site holds an entry or a redial is in flight.
	redialAt time.Time
}

// cacheDial establishes a session to a site once. An empty addr means
// "resolve the site yourself"; pins and explicit-address callers pass
// the address to dial.
type cacheDial[T Session] func(ctx context.Context, site, addr string) (T, error)

// cacheProbe round-trips one heartbeat over a session. It must honour
// ctx; an error (including a deadline) counts as a miss.
type cacheProbe[T Session] func(ctx context.Context, sess T) error

// inflightDial is a singleflight slot: the first Get for a missing site
// dials, later Gets wait on done.
type inflightDial[T Session] struct {
	done chan struct{}
	sess T
	err  error
}

// Cache is a dial-on-demand connection cache keyed by site name — the
// connectivity half of the membership split. The directory knows all N
// sites; the cache holds live tunnels to the handful in active use,
// dialing lazily, evicting by LRU past MaxTunnels, and closing idle
// tunnels. Configured peers are pinned: the cache keeps them connected
// itself (redial and heartbeat). It does not watch session death: the
// owner does, and calls DropIf when a session ends.
type Cache[T Session] struct {
	cfg   Config
	self  string // this end's site name, for the crossing-dial tie-break
	dial  cacheDial[T]
	probe cacheProbe[T]
	// onEvict, if set, runs just before the cache closes a session it
	// evicted (LRU, idle, or replacement) — the owner uses it to mark
	// the teardown as expected. A heartbeat teardown skips it: an
	// unresponsive peer is a failure.
	onEvict func(site string, sess T)
	log     *logging.Logger
	// wake nudges the janitor to re-arm its redial timer.
	wake chan struct{}
	wg   sync.WaitGroup // redials and heartbeat probes in flight

	mu       sync.Mutex
	live     map[string]*cacheEntry[T]
	inflight map[string]*inflightDial[T]
	breakers map[string]*breaker
	pins     map[string]*pin
	closed   bool
}

// NewCache builds an empty cache for the site named self. dial is
// invoked (outside any lock) for Gets that miss and for pin redials;
// probe heartbeats pinned sessions and may be nil (no heartbeats);
// onEvict may be nil.
func NewCache[T Session](cfg Config, self string, dial cacheDial[T], probe cacheProbe[T], onEvict func(site string, sess T)) *Cache[T] {
	cfg = cfg.WithDefaults()
	return &Cache[T]{
		cfg:      cfg,
		self:     self,
		dial:     dial,
		probe:    probe,
		onEvict:  onEvict,
		log:      cfg.Logger.Named("cache"),
		wake:     make(chan struct{}, 1),
		live:     make(map[string]*cacheEntry[T]),
		inflight: make(map[string]*inflightDial[T]),
		breakers: make(map[string]*breaker),
		pins:     make(map[string]*pin),
	}
}

// Get returns the live session for site, dialing it on demand, and
// checks it out: the session is safe from LRU eviction and idle close
// until the caller hands it back with Release. Concurrent Gets for the
// same missing site share one dial. Callers that can tolerate a miss
// (and only glance, never transact) use Peek.
func (c *Cache[T]) Get(ctx context.Context, site string) (T, error) {
	return c.get(ctx, site, "")
}

// GetAt is Get with the address to dial on a miss given by the caller
// rather than resolved by the dial hook. An explicit-address dial is a
// deliberate attempt: it is not held back by an open breaker, though its
// outcome still feeds the breaker.
func (c *Cache[T]) GetAt(ctx context.Context, site, addr string) (T, error) {
	return c.get(ctx, site, addr)
}

func (c *Cache[T]) get(ctx context.Context, site, addr string) (T, error) {
	var zero T
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero, context.Canceled
	}
	if e, ok := c.live[site]; ok {
		c.checkoutLocked(e)
		c.mu.Unlock()
		return e.sess, nil
	}
	if f, ok := c.inflight[site]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return zero, f.err
			}
			// The dial winner inserted the session with its own
			// checkout, not ours — take one, unless the entry is
			// already gone (evicted or dropped before we woke), in
			// which case start over.
			c.mu.Lock()
			if e, ok := c.live[site]; ok && any(e.sess) == any(f.sess) {
				c.checkoutLocked(e)
				c.mu.Unlock()
				return f.sess, nil
			}
			c.mu.Unlock()
			return c.get(ctx, site, addr)
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	if addr == "" {
		if err := c.breakerAllowLocked(site); err != nil {
			c.mu.Unlock()
			return zero, err
		}
	}
	f := &inflightDial[T]{done: make(chan struct{})}
	c.inflight[site] = f
	c.mu.Unlock()

	if addr == "" {
		c.cfg.Metrics.Counter(metrics.PeerDialsOnDemand).Inc()
	}
	sess, err := c.dial(ctx, site, addr)
	refused := errors.Is(err, ErrRefused)
	switch {
	case err == nil:
		c.breakerRecord(site, true)
	case refused:
		// The remote refused our session on purpose; that says
		// nothing about the site.
	case ctx.Err() == nil:
		// A canceled caller says nothing about the site either; every
		// other dial failure counts toward opening the breaker.
		c.breakerRecord(site, false)
	}

	var victims []evicted[T]
	c.mu.Lock()
	delete(c.inflight, site)
	switch {
	case c.closed:
		// Lost the race with CloseAll: the new session must not
		// outlive the cache.
		if err == nil {
			victims = append(victims, evicted[T]{site: site, sess: sess})
		}
		sess, err = zero, context.Canceled
	case refused:
		// Adopt the session the remote kept, if it is cached.
		if e, ok := c.live[site]; ok {
			sess, err = e.sess, nil
			c.checkoutLocked(e)
		}
	case err == nil:
		_, victims = c.addLocked(site, sess, true)
		if e, ok := c.live[site]; ok {
			// Ours, or the entry that won the tie-break over ours.
			sess = e.sess
			c.checkoutLocked(e)
		} else {
			sess, err = zero, errInsertClosed
		}
	}
	f.sess, f.err = sess, err
	c.mu.Unlock()
	close(f.done)
	c.closeEvicted(victims)
	if err != nil {
		return zero, err
	}
	return sess, nil
}

// checkoutLocked takes one checkout on e. Caller holds c.mu.
func (c *Cache[T]) checkoutLocked(e *cacheEntry[T]) {
	e.refs++
	e.lastUse = c.cfg.Now()
}

// Release hands back a checkout taken by Get. It is identity-checked:
// releasing a session that has since been replaced or dropped is a
// no-op, so callers may release unconditionally after use. The release
// refreshes the LRU clock — "last use" means the RPC's end, not its
// start.
func (c *Cache[T]) Release(site string, sess T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.live[site]
	if !ok || any(e.sess) != any(sess) || e.refs == 0 {
		return
	}
	e.refs--
	e.lastUse = c.cfg.Now()
}

// Pin makes site a configured peer reached at addr, then makes one
// synchronous attempt to hold a session to it. Whoever inserts a
// pinned site's entry (this dial, a later redial, or the remote dialing
// in), the entry is exempt from LRU eviction and idle close. Whenever
// the site holds no entry — the attempt failed, or a held session was
// dropped — the janitor redials addr after the backoff window, for as
// long as the cache runs.
func (c *Cache[T]) Pin(ctx context.Context, site, addr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return context.Canceled
	}
	pn, ok := c.pins[site]
	if !ok {
		pn = &pin{}
		c.pins[site] = pn
	}
	pn.addr = addr
	if _, ok := c.live[site]; ok {
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	sess, err := c.get(ctx, site, addr)
	if err != nil {
		c.mu.Lock()
		if _, ok := c.live[site]; !ok && pn.redialAt.IsZero() {
			c.scheduleLocked(pn, 0)
		}
		c.mu.Unlock()
		c.nudge()
		return err
	}
	c.Release(site, sess)
	return nil
}

// scheduleLocked sets a pin's next redial one backoff window n from
// now. Caller holds c.mu.
func (c *Cache[T]) scheduleLocked(pn *pin, n int) {
	pn.failures = n
	pn.redialAt = c.cfg.Now().Add(c.cfg.window(n))
}

// nudge wakes the janitor to re-arm its redial timer.
func (c *Cache[T]) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Peek returns the cached session for site without dialing. It does not
// refresh the LRU clock or check the session out: peeking at a tunnel
// is not using it, and the peeked session may be evicted at any time.
func (c *Cache[T]) Peek(site string) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.live[site]
	if !ok {
		var zero T
		return zero, false
	}
	return e.sess, true
}

// Has reports whether a live tunnel to site is held.
func (c *Cache[T]) Has(site string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.live[site]
	return ok
}

// Len returns the number of live sessions held.
func (c *Cache[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// Sites returns the sites with live sessions, sorted.
func (c *Cache[T]) Sites() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.live))
	for site := range c.live {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// Add adopts a session the remote site dialed (an accepted inbound
// tunnel), reporting whether it was kept. It is refused only when this
// end holds a live session it dialed itself and its site name is the
// lower one (the crossing-dial tie-break); the caller then refuses the
// remote, whose dialer adopts the kept session. Any session the new
// one displaces is closed as an eviction. After CloseAll, Add always
// reports false.
func (c *Cache[T]) Add(site string, sess T) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	kept, victims := c.addLocked(site, sess, false)
	if kept {
		delete(c.breakers, site) // an inbound session proves reachability
	}
	c.mu.Unlock()
	c.closeEvicted(victims)
	return kept
}

// addLocked inserts sess for site unless the live entry wins the
// tie-break, returning whether sess was kept and the sessions to close
// after the lock is released: the entry sess displaced and any LRU
// victims, or sess itself when it lost. A session already dead is
// neither kept nor closed. Caller holds c.mu.
func (c *Cache[T]) addLocked(site string, sess T, outbound bool) (bool, []evicted[T]) {
	select {
	case <-sess.Done():
		return false, nil
	default:
	}
	var victims []evicted[T]
	if old, ok := c.live[site]; ok {
		if !c.keepsNewLocked(site, old, outbound) {
			if outbound {
				victims = append(victims, evicted[T]{site: site, sess: sess})
			}
			return false, victims
		}
		victims = append(victims, evicted[T]{site: site, sess: old.sess})
	}
	c.live[site] = &cacheEntry[T]{sess: sess, lastUse: c.cfg.Now(), outbound: outbound}
	if pn, ok := c.pins[site]; ok {
		if pn.lost {
			c.cfg.Metrics.Counter(metrics.PeerReconnects).Inc()
		}
		pn.lost = false
		pn.failures = 0
		pn.redialAt = time.Time{}
	}
	victims = append(victims, c.evictLRULocked(site)...)
	c.cfg.Metrics.Gauge(metrics.PeersCached).Set(int64(len(c.live)))
	return true, victims
}

// keepsNewLocked is the tie-break between a live entry and a new
// session for the same site. A dead entry always yields. Two sessions
// dialed the same way mean the dialer dropped the older one before
// dialing again, so the new one wins. Crossing dials (one each way)
// keep the session dialed by the lexically lower site; both ends
// compute the same answer. Caller holds c.mu.
func (c *Cache[T]) keepsNewLocked(site string, old *cacheEntry[T], outbound bool) bool {
	select {
	case <-old.sess.Done():
		return true
	default:
	}
	if old.outbound == outbound {
		return true
	}
	// The new session is ours exactly when the old one is the remote's.
	return outbound == (c.self < site)
}

// Snapshot returns the live sessions keyed by site.
func (c *Cache[T]) Snapshot() map[string]T {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]T, len(c.live))
	for site, e := range c.live {
		out[site] = e.sess
	}
	return out
}

// DropIf removes site's entry only when it still holds sess (compared by
// interface identity — sessions must be comparable, e.g. pointers),
// without closing it. It reports whether the entry was removed; a false
// return means a newer session took the slot and survives. A pinned
// site's redial is scheduled.
func (c *Cache[T]) DropIf(site string, sess T) bool {
	c.mu.Lock()
	e, ok := c.live[site]
	if !ok || any(e.sess) != any(sess) {
		c.mu.Unlock()
		return false
	}
	c.removeLocked(site)
	c.mu.Unlock()
	c.nudge()
	return true
}

// Drop removes site's session from the cache without closing it — the
// caller owns the teardown (it is usually reacting to the session already
// being dead). A pinned site's redial is scheduled.
func (c *Cache[T]) Drop(site string) {
	c.mu.Lock()
	_, ok := c.live[site]
	if ok {
		c.removeLocked(site)
	}
	c.mu.Unlock()
	if ok {
		c.nudge()
	}
}

// removeLocked deletes site's entry and, for a pinned site, schedules
// the first redial one BreakerMinOpen window out. Caller holds c.mu.
func (c *Cache[T]) removeLocked(site string) {
	delete(c.live, site)
	c.cfg.Metrics.Gauge(metrics.PeersCached).Set(int64(len(c.live)))
	if pn, ok := c.pins[site]; ok && !c.closed {
		pn.lost = true
		c.scheduleLocked(pn, 0)
	}
}

// evicted pairs a session with its site for deferred close.
type evicted[T Session] struct {
	site string
	sess T
}

// evictLRULocked closes unpinned entries past MaxTunnels, least
// recently used first, never the one named keep (the entry just
// inserted). It returns the victims to close. Caller holds c.mu.
func (c *Cache[T]) evictLRULocked(keep string) []evicted[T] {
	if c.cfg.MaxTunnels <= 0 {
		return nil
	}
	var victims []evicted[T]
	for c.unpinnedLocked() > c.cfg.MaxTunnels {
		victim := c.oldestUnpinnedLocked(keep)
		if victim == "" {
			break
		}
		victims = append(victims, evicted[T]{site: victim, sess: c.live[victim].sess})
		delete(c.live, victim)
		c.cfg.Metrics.Counter(metrics.PeerLRUEvictions).Inc()
	}
	return victims
}

// unpinnedLocked counts unpinned live entries. Caller holds c.mu.
func (c *Cache[T]) unpinnedLocked() int {
	n := 0
	for site := range c.live {
		if _, pinned := c.pins[site]; !pinned {
			n++
		}
	}
	return n
}

// oldestUnpinnedLocked returns the least-recently-used unpinned,
// unreferenced site, never the one named keep. When every candidate is
// checked out it returns "" and the cache temporarily exceeds
// MaxTunnels — a soft cap beats closing a tunnel mid-RPC. Caller holds
// c.mu.
func (c *Cache[T]) oldestUnpinnedLocked(keep string) string {
	var oldest string
	var oldestAt time.Time
	for site, e := range c.live {
		if _, pinned := c.pins[site]; pinned || e.refs > 0 || site == keep {
			continue
		}
		if oldest == "" || e.lastUse.Before(oldestAt) {
			oldest = site
			oldestAt = e.lastUse
		}
	}
	return oldest
}

// closeEvicted runs the evict hook and closes sessions, outside any lock.
func (c *Cache[T]) closeEvicted(victims []evicted[T]) {
	for _, v := range victims {
		if c.onEvict != nil {
			c.onEvict(v.site, v.sess)
		}
		_ = v.sess.Close()
	}
}

// Sweep closes unpinned sessions idle past IdleClose. The janitor calls
// it periodically; tests call it directly.
func (c *Cache[T]) Sweep() {
	if c.cfg.IdleClose <= 0 {
		return
	}
	now := c.cfg.Now()
	var victims []evicted[T]
	c.mu.Lock()
	for site, e := range c.live {
		if _, pinned := c.pins[site]; pinned || e.refs > 0 {
			continue
		}
		if now.Sub(e.lastUse) > c.cfg.IdleClose {
			victims = append(victims, evicted[T]{site: site, sess: e.sess})
			delete(c.live, site)
			c.cfg.Metrics.Counter(metrics.PeerIdleCloses).Inc()
		}
	}
	if len(victims) > 0 {
		c.cfg.Metrics.Gauge(metrics.PeersCached).Set(int64(len(c.live)))
	}
	c.mu.Unlock()
	c.closeEvicted(victims)
}

// heartbeat probes every pinned entry concurrently (skipping one whose
// last probe is still out). HeartbeatMisses consecutive misses close
// the session without the evict hook — an unresponsive peer is a
// failure, not an eviction — and schedule its redial.
func (c *Cache[T]) heartbeat(ctx context.Context) {
	if c.probe == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for site := range c.pins {
		e, ok := c.live[site]
		if !ok || e.probing {
			continue
		}
		e.probing = true
		c.wg.Add(1)
		go func(site string, e *cacheEntry[T]) {
			defer c.wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.cfg.HeartbeatTimeout)
			err := c.probe(pctx, e.sess)
			cancel()
			c.recordProbe(site, e, err)
		}(site, e)
	}
}

// recordProbe folds one heartbeat result into its entry.
func (c *Cache[T]) recordProbe(site string, e *cacheEntry[T], err error) {
	reg := c.cfg.Metrics
	reg.Counter(metrics.PeerHeartbeats).Inc()
	c.mu.Lock()
	e.probing = false
	if err == nil {
		e.misses = 0
		c.mu.Unlock()
		return
	}
	reg.Counter(metrics.PeerHeartbeatMisses).Inc()
	e.misses++
	misses := e.misses
	if misses < c.cfg.HeartbeatMisses || c.live[site] != e {
		c.mu.Unlock()
		c.log.Debug("peer heartbeat missed", "site", site, "misses", misses, "err", err)
		return
	}
	c.removeLocked(site)
	c.mu.Unlock()
	c.nudge()
	c.log.Warn("peer unresponsive; closing session for redial", "site", site, "misses", misses, "err", err)
	_ = e.sess.Close()
}

// nextRedial returns how long until the earliest pending redial is due,
// and false when none is pending.
func (c *Cache[T]) nextRedial() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next time.Time
	for _, pn := range c.pins {
		if !pn.redialAt.IsZero() && (next.IsZero() || pn.redialAt.Before(next)) {
			next = pn.redialAt
		}
	}
	if next.IsZero() {
		return 0, false
	}
	return max(next.Sub(c.cfg.Now()), 0), true
}

// redialDue starts a redial of every pinned site whose redial time has
// come. A redial dials the pin's address: the owner's liveness filters
// (a site marked dead stays dead until it answers) do not hold it back,
// and neither does the breaker it feeds. A failure schedules the next
// attempt one doubled window out.
func (c *Cache[T]) redialDue(ctx context.Context) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for site, pn := range c.pins {
		if pn.redialAt.IsZero() || now.Before(pn.redialAt) {
			continue
		}
		pn.redialAt = time.Time{}
		if _, ok := c.live[site]; ok {
			continue
		}
		c.wg.Add(1)
		go c.redial(ctx, site, pn.addr)
	}
}

// redial runs one redial attempt of a pinned site.
func (c *Cache[T]) redial(ctx context.Context, site, addr string) {
	defer c.wg.Done()
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	sess, err := c.get(dctx, site, addr)
	cancel()
	if err == nil {
		c.Release(site, sess)
		return
	}
	if ctx.Err() != nil {
		return
	}
	c.cfg.Metrics.Counter(metrics.PeerRedialFailures).Inc()
	var retryIn time.Duration
	c.mu.Lock()
	pn, ok := c.pins[site]
	if _, live := c.live[site]; ok && !live && !c.closed && pn.redialAt.IsZero() {
		c.scheduleLocked(pn, pn.failures+1)
		retryIn = pn.redialAt.Sub(c.cfg.Now())
	}
	c.mu.Unlock()
	c.nudge()
	c.log.Debug("peer redial failed", "site", site, "err", err, "retry_in", retryIn)
}

// Run drives the janitor until ctx is cancelled, then closes every
// remaining session: idle sweeps, heartbeats over pinned sessions, and
// redials of pinned sites that lost theirs.
//
//lint:allow-wallclock the janitor's timers wait real time; the deadlines they serve are read from Config.Now
func (c *Cache[T]) Run(ctx context.Context) {
	sweep := time.NewTicker(c.cfg.SweepEvery)
	defer sweep.Stop()
	var beat <-chan time.Time
	if c.cfg.HeartbeatInterval > 0 && c.probe != nil {
		t := time.NewTicker(c.cfg.HeartbeatInterval)
		defer t.Stop()
		beat = t.C
	}
	for {
		var due <-chan time.Time
		if d, ok := c.nextRedial(); ok {
			due = time.After(d)
		}
		select {
		case <-ctx.Done():
			c.CloseAll()
			c.wg.Wait()
			return
		case <-sweep.C:
			c.Sweep()
		case <-beat:
			c.heartbeat(ctx)
		case <-due:
			c.redialDue(ctx)
		case <-c.wake:
		}
	}
}

// CloseAll closes every live session and refuses further inserts.
func (c *Cache[T]) CloseAll() {
	var victims []evicted[T]
	c.mu.Lock()
	c.closed = true
	for site, e := range c.live {
		victims = append(victims, evicted[T]{site: site, sess: e.sess})
		delete(c.live, site)
	}
	c.cfg.Metrics.Gauge(metrics.PeersCached).Set(0)
	c.mu.Unlock()
	c.closeEvicted(victims)
}
