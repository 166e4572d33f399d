package peerlink

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridproxy/internal/metrics"
)

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.HeartbeatInterval != DefaultHeartbeatInterval || c.HeartbeatMisses != DefaultHeartbeatMisses {
		t.Errorf("heartbeat defaults not applied: %+v", c)
	}
	if c.RPCTimeout != DefaultRPCTimeout || c.HelloTimeout != DefaultHelloTimeout {
		t.Errorf("timeout defaults not applied: %+v", c)
	}
	if c.BreakerMinOpen != DefaultBreakerMinOpen || c.BreakerMaxOpen != DefaultBreakerMaxOpen {
		t.Errorf("backoff window defaults not applied: %+v", c)
	}
	// Negative means disabled and must survive.
	d := Config{HeartbeatInterval: -1, RPCTimeout: -1}.WithDefaults()
	if d.HeartbeatInterval != -1 || d.RPCTimeout != -1 {
		t.Errorf("negative (disabled) knobs overridden: %+v", d)
	}
	// StatusTTL has no default: caching is opt-in.
	if c.StatusTTL != 0 {
		t.Errorf("StatusTTL defaulted to %v, want 0", c.StatusTTL)
	}
}

// pinDialer records the address of every dial and fails while down.
type pinDialer struct {
	mu    sync.Mutex
	addrs []string
	down  bool
}

func (d *pinDialer) dial(_ context.Context, site, addr string) (*cacheSession, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs = append(d.addrs, addr)
	if d.down {
		return nil, errors.New("connection refused")
	}
	return newCacheSession(site), nil
}

func (d *pinDialer) setDown(down bool) {
	d.mu.Lock()
	d.down = down
	d.mu.Unlock()
}

func (d *pinDialer) dials() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.addrs...)
}

// runCache starts the janitor and stops it when the test ends.
func runCache(t *testing.T, c *Cache[*cacheSession]) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// TestReconnectAfterSessionDeath checks a pinned site that loses its
// entry — the owner's DropIf after session death, or a Drop — is
// redialed at the pinned address by the janitor, and each restore counts
// as a reconnect.
func TestReconnectAfterSessionDeath(t *testing.T) {
	reg := metrics.NewRegistry()
	d := &pinDialer{}
	c := NewCache[*cacheSession](Config{
		BreakerMinOpen:    5 * time.Millisecond,
		BreakerMaxOpen:    20 * time.Millisecond,
		HeartbeatInterval: -1,
		Metrics:           reg,
	}, "local", d.dial, nil, nil)
	runCache(t, c)

	if err := c.Pin(context.Background(), "peer", "peer.addr"); err != nil {
		t.Fatal(err)
	}
	first, ok := c.Peek("peer")
	if !ok {
		t.Fatal("Pin left no session")
	}
	_ = first.Close()
	if !c.DropIf("peer", first) {
		t.Fatal("DropIf missed the pinned entry")
	}
	waitFor(t, time.Second, func() bool {
		return reg.Counter(metrics.PeerReconnects).Value() == 1 && c.Has("peer")
	})
	second, _ := c.Peek("peer")
	if second == first {
		t.Fatal("redial restored the dead session")
	}

	c.Drop("peer")
	waitFor(t, time.Second, func() bool {
		return reg.Counter(metrics.PeerReconnects).Value() == 2 && c.Has("peer")
	})
	for i, addr := range d.dials() {
		if addr != "peer.addr" {
			t.Fatalf("dial %d went to %q, want the pinned address", i, addr)
		}
	}
	if n := len(d.dials()); n != 3 {
		t.Fatalf("dials = %d, want 3 (pin + two redials)", n)
	}
}

// TestRedialWaitsFollowBreakerWindow drives a pinned site through a run
// of failed redials on an injected clock: the first redial is due one
// BreakerMinOpen window after the loss, each failure doubles the wait up
// to BreakerMaxOpen (±20%), the failures feed the breaker without an
// open breaker holding the redials back, and a success resets both.
func TestRedialWaitsFollowBreakerWindow(t *testing.T) {
	const minOpen, maxOpen = 100 * time.Millisecond, time.Second
	reg := metrics.NewRegistry()
	clock := &breakerClock{now: time.Unix(1000, 0)}
	d := &pinDialer{down: true}
	c := NewCache[*cacheSession](Config{
		BreakerThreshold: 3,
		BreakerMinOpen:   minOpen,
		BreakerMaxOpen:   maxOpen,
		Now:              clock.Now,
		Metrics:          reg,
	}, "local", d.dial, nil, nil)
	t.Cleanup(c.CloseAll)
	ctx := context.Background()

	// wait reports how far out the pin's next redial is.
	wait := func() time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pins["peer"].redialAt.Sub(clock.Now())
	}
	within := func(got, want time.Duration) bool {
		return got >= want*8/10 && got <= want*12/10
	}

	if err := c.Pin(ctx, "peer", "peer.addr"); err == nil {
		t.Fatal("Pin to a down site succeeded")
	}
	want := []time.Duration{minOpen, 2 * minOpen, 4 * minOpen, 8 * minOpen, maxOpen, maxOpen}
	for i, w := range want {
		if got := wait(); !within(got, w) {
			t.Fatalf("redial %d due in %v, want %v ±20%%", i, got, w)
		}
		// Not due yet: nothing dials.
		before := len(d.dials())
		c.redialDue(ctx)
		c.wg.Wait()
		if len(d.dials()) != before {
			t.Fatalf("redial %d ran before its window", i)
		}
		clock.Advance(wait())
		c.redialDue(ctx)
		c.wg.Wait()
		if len(d.dials()) != before+1 {
			t.Fatalf("redial %d did not run when due", i)
		}
		if i == 1 {
			// Pin's attempt and two redials fed the breaker: on-demand
			// Gets fast-fail, explicit-address dials still go out.
			if _, err := c.Get(ctx, "peer"); !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("Get after failed redials: %v, want ErrCircuitOpen", err)
			}
			if _, err := c.GetAt(ctx, "peer", "peer.addr"); err == nil || errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("GetAt with the breaker open: %v, want the dial's own error", err)
			}
		}
	}
	if got := reg.Counter(metrics.PeerRedialFailures).Value(); got != int64(len(want)) {
		t.Fatalf("peer.redial_failures = %d, want %d", got, len(want))
	}

	// Recovery: the next redial succeeds and resets the breaker and
	// the window.
	d.setDown(false)
	clock.Advance(wait())
	c.redialDue(ctx)
	c.wg.Wait()
	if !c.Has("peer") {
		t.Fatal("redial after recovery did not restore the entry")
	}
	sess, _ := c.Peek("peer")
	c.Drop("peer")
	_ = sess.Close()
	if got := wait(); !within(got, minOpen) {
		t.Fatalf("redial after a fresh loss due in %v, want %v ±20%%", got, minOpen)
	}
	if _, err := c.Get(ctx, "peer"); err != nil {
		t.Fatalf("breaker survived a successful redial: %v", err)
	}
}

// TestWindowBounds checks the shared window function on its own: ±20%
// of BreakerMinOpen·2ⁿ, never past the jittered cap.
func TestWindowBounds(t *testing.T) {
	cfg := Config{BreakerMinOpen: 100 * time.Millisecond, BreakerMaxOpen: time.Second}.WithDefaults()
	for n := 0; n < 40; n++ {
		for i := 0; i < 50; i++ {
			w := cfg.window(n)
			if w > 1200*time.Millisecond {
				t.Fatalf("window(%d) = %v exceeds jittered cap", n, w)
			}
			if n == 0 && (w < 80*time.Millisecond || w > 120*time.Millisecond) {
				t.Fatalf("window(0) = %v outside jittered min", w)
			}
			if n == 2 && (w < 320*time.Millisecond || w > 480*time.Millisecond) {
				t.Fatalf("window(2) = %v, want 400ms ±20%%", w)
			}
		}
	}
}

// TestHeartbeatTearsDownPinnedSession checks HeartbeatMisses consecutive
// failed probes close a pinned session without the evict hook (so its
// owner reads the close as a failure) and schedule a redial, while a
// successful probe resets the count.
func TestHeartbeatTearsDownPinnedSession(t *testing.T) {
	reg := metrics.NewRegistry()
	var healthy atomic.Bool
	probe := func(ctx context.Context, s *cacheSession) error {
		if healthy.Load() {
			return nil
		}
		return errors.New("probe failed")
	}
	var evicts atomic.Int32
	c := NewCache[*cacheSession](Config{HeartbeatMisses: 3, HeartbeatTimeout: time.Second, Metrics: reg},
		"local", (&pinDialer{}).dial, probe, func(string, *cacheSession) { evicts.Add(1) })
	t.Cleanup(c.CloseAll)
	ctx := context.Background()
	if err := c.Pin(ctx, "peer", "peer.addr"); err != nil {
		t.Fatal(err)
	}
	sess, _ := c.Peek("peer")
	beat := func() {
		c.heartbeat(ctx)
		c.wg.Wait()
	}

	beat()
	beat()
	healthy.Store(true)
	beat() // resets the run of misses
	healthy.Store(false)
	beat()
	beat()
	if !c.Has("peer") || sess.closed.Load() {
		t.Fatal("session closed before HeartbeatMisses consecutive misses")
	}
	beat()
	if c.Has("peer") || !sess.closed.Load() {
		t.Fatal("session survived HeartbeatMisses consecutive misses")
	}
	if n := evicts.Load(); n != 0 {
		t.Fatalf("heartbeat teardown ran the evict hook %d times", n)
	}
	if got := reg.Counter(metrics.PeerHeartbeats).Value(); got != 6 {
		t.Fatalf("peer.heartbeats = %d, want 6", got)
	}
	if got := reg.Counter(metrics.PeerHeartbeatMisses).Value(); got != 5 {
		t.Fatalf("peer.heartbeat_misses = %d, want 5", got)
	}
	if _, pending := c.nextRedial(); !pending {
		t.Fatal("no redial scheduled after the heartbeat teardown")
	}
}

// TestPinnedInboundSurvivesSweep checks an entry for a pinned site is
// pinned whoever inserted it: a session the site dialed in is exempt
// from idle close and LRU eviction, and pinning it dials nothing.
func TestPinnedInboundSurvivesSweep(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	d := &pinDialer{}
	c := NewCache[*cacheSession](Config{MaxTunnels: 1, IdleClose: 10 * time.Second, Now: clock},
		"local", d.dial, nil, nil)
	t.Cleanup(c.CloseAll)
	inbound := newCacheSession("boot")
	if !c.Add("boot", inbound) {
		t.Fatal("Add refused an inbound session")
	}
	if err := c.Pin(context.Background(), "boot", "boot.addr"); err != nil {
		t.Fatal(err)
	}
	if n := len(d.dials()); n != 0 {
		t.Fatalf("pinning a held site dialed %d times", n)
	}
	c.Add("other", newCacheSession("other")) // LRU pressure at MaxTunnels 1
	c.Add("third", newCacheSession("third"))
	mu.Lock()
	now = now.Add(time.Minute)
	mu.Unlock()
	c.Sweep()
	if got, ok := c.Peek("boot"); !ok || got != inbound || inbound.closed.Load() {
		t.Fatal("pinned inbound session evicted or idle-closed")
	}
}

// TestCrossingDialsKeepLowerSitesSession checks the tie-break both ends
// of a crossing dial apply: the session dialed by the lexically lower
// site survives, the other is evicted, and a dial the remote refused as
// a duplicate adopts the cached session without touching the breaker.
func TestCrossingDialsKeepLowerSitesSession(t *testing.T) {
	var evicted []*cacheSession
	var mu sync.Mutex
	onEvict := func(_ string, s *cacheSession) {
		mu.Lock()
		evicted = append(evicted, s)
		mu.Unlock()
	}
	ctx := context.Background()

	// Lower end: our outbound session beats the remote's inbound one.
	d := &pinDialer{}
	lower := NewCache[*cacheSession](Config{}, "sitea", d.dial, nil, onEvict)
	t.Cleanup(lower.CloseAll)
	ours, err := lower.Get(ctx, "siteb")
	if err != nil {
		t.Fatal(err)
	}
	if lower.Add("siteb", newCacheSession("siteb")) {
		t.Fatal("lower site adopted the higher site's crossing session")
	}
	if got, _ := lower.Peek("siteb"); got != ours {
		t.Fatal("lower site lost the session it dialed")
	}

	// Higher end: the remote's inbound session displaces ours as an
	// eviction.
	higher := NewCache[*cacheSession](Config{}, "sitec", d.dial, nil, onEvict)
	t.Cleanup(higher.CloseAll)
	mine, err := higher.Get(ctx, "siteb")
	if err != nil {
		t.Fatal(err)
	}
	theirs := newCacheSession("siteb")
	if !higher.Add("siteb", theirs) {
		t.Fatal("higher site refused the lower site's crossing session")
	}
	if got, _ := higher.Peek("siteb"); got != theirs || !mine.closed.Load() {
		t.Fatal("higher site kept the session it dialed")
	}
	mu.Lock()
	if len(evicted) != 1 || evicted[0] != mine {
		t.Fatalf("evict hook saw %v, want the displaced session", evicted)
	}
	mu.Unlock()

	// A refused dial: the remote's session arrived while we dialed.
	var cross *Cache[*cacheSession]
	inbound := newCacheSession("sitea")
	refuse := func(context.Context, string, string) (*cacheSession, error) {
		cross.Add("sitea", inbound)
		return nil, ErrRefused
	}
	cross = NewCache[*cacheSession](Config{BreakerThreshold: 1}, "siteb", refuse, nil, nil)
	t.Cleanup(cross.CloseAll)
	for i := 0; i < 3; i++ {
		cross.Drop("sitea")
		got, err := cross.Get(ctx, "sitea")
		if err != nil || got != inbound {
			t.Fatalf("refused dial %d: got %v, %v; want the cached session", i, got, err)
		}
		cross.Release("sitea", got)
	}
}

// TestFanOutBoundedByPerTargetDeadline injects one hung target among
// healthy ones and checks the fan-out completes in O(deadline), not
// O(forever), with per-target results preserved in order.
func TestFanOutBoundedByPerTargetDeadline(t *testing.T) {
	targets := []string{"a", "hung", "b"}
	start := time.Now()
	results := FanOut(context.Background(), targets, 100*time.Millisecond,
		func(ctx context.Context, target string) (string, error) {
			if target == "hung" {
				<-ctx.Done() // a hung peer: only the deadline frees us
				return "", ctx.Err()
			}
			return "ok:" + target, nil
		})
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("fan-out took %v; hung target not bounded by deadline", elapsed)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Value != "ok:a" || results[0].Err != nil {
		t.Errorf("target a: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Errorf("hung target err = %v, want DeadlineExceeded", results[1].Err)
	}
	if results[2].Value != "ok:b" || results[2].Err != nil {
		t.Errorf("target b: %+v", results[2])
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}
