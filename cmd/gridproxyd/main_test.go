package main

import (
	"strings"
	"testing"
	"time"

	"gridproxy/internal/config"
)

// TestLifecycleRefusesRetiredKeys checks a config still setting the
// retired redial keys fails loudly, naming their replacements, instead
// of silently running on other timing.
func TestLifecycleRefusesRetiredKeys(t *testing.T) {
	for _, key := range []string{"backoff_min", "backoff_max"} {
		cfg, err := config.Parse(strings.NewReader("site = sitea\n" + key + " = 200ms\n"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = lifecycleFromConfig(cfg)
		if err == nil {
			t.Fatalf("%s accepted", key)
		}
		for _, want := range []string{key, "breaker_min_open", "breaker_max_open"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", key, err, want)
			}
		}
	}
}

// TestLifecycleReadsPeerKeys checks the one peer-layer reader picks up
// the heartbeat and connection-cache keys.
func TestLifecycleReadsPeerKeys(t *testing.T) {
	cfg, err := config.Parse(strings.NewReader(`
heartbeat = 500ms
heartbeat_misses = 5
max_tunnels = 7
idle_close = -1s
breaker_min_open = 50ms
breaker_max_open = 2s
`))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := lifecycleFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lc.HeartbeatInterval != 500*time.Millisecond || lc.HeartbeatMisses != 5 {
		t.Errorf("heartbeat keys: %+v", lc)
	}
	if lc.MaxTunnels != 7 || lc.IdleClose != -time.Second {
		t.Errorf("cache keys: %+v", lc)
	}
	if lc.BreakerMinOpen != 50*time.Millisecond || lc.BreakerMaxOpen != 2*time.Second {
		t.Errorf("breaker window keys: %+v", lc)
	}
}
