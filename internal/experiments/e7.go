package experiments

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/peerlink"
	"gridproxy/internal/site"
)

// E7Row is one failure-containment measurement.
type E7Row struct {
	Sites        int
	NodesPerSite int
	// NodesBefore/After are the schedulable candidates seen by a
	// surviving proxy before and after one site's proxy dies.
	NodesBefore int
	NodesAfter  int
	// SurvivingFrac = NodesAfter / NodesBefore.
	SurvivingFrac float64
	// ExpectedFrac is (sites-1)/sites — the paper's containment claim:
	// losing one proxy costs exactly that site's resources.
	ExpectedFrac float64
	// Detection is how long the surviving proxy took to notice and
	// evict the dead peer.
	Detection time.Duration
	// PlacementOK reports whether a new placement succeeded on the
	// survivors immediately after detection.
	PlacementOK bool
	// Reconnect is how long after the dead site restarted (at the same
	// addresses) the survivor's redial of the pinned site re-established
	// peering and re-learned the full inventory — with no operator action.
	Reconnect time.Duration
	// RecoveredOK reports whether the full pre-failure inventory came
	// back after the restart.
	RecoveredOK bool
}

// E7Config parameterizes experiment E7.
type E7Config struct {
	Shapes [][2]int
}

// DefaultE7 returns the parameters used in EXPERIMENTS.md.
func DefaultE7() E7Config {
	return E7Config{Shapes: [][2]int{{2, 4}, {3, 4}, {5, 4}}}
}

// E7 kills one site's proxy and measures what the rest of the grid loses,
// then restarts the site and measures how long unsupervised recovery
// takes. The paper: "This distributed control reduces the effect of
// failures on a given site or proxy." Expected shape: the surviving
// fraction of schedulable nodes equals (sites-1)/sites, new placements
// keep succeeding, and after the restart the survivor's connection
// cache redials the pinned peer and re-establishes the full grid without
// operator action.
func E7(cfg E7Config) ([]E7Row, error) {
	var rows []E7Row
	for _, shape := range cfg.Shapes {
		row, err := runE7Shape(shape[0], shape[1])
		if err != nil {
			return nil, fmt.Errorf("e7 %dx%d: %w", shape[0], shape[1], err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE7Shape(sitesCount, nodesPerSite int) (E7Row, error) {
	tbCfg := site.TestbedConfig{
		GridName: "e7",
		// A short backoff window so the post-restart reconnect measures
		// the pinned peer's redial, not the 500ms default window: the
		// survivor redials the lost site 20ms after the loss, then at
		// doubling waits capped at 500ms. Heartbeats off so detection
		// measures the session-death path alone.
		Lifecycle: peerlink.Config{
			BreakerMinOpen:    20 * time.Millisecond,
			BreakerMaxOpen:    500 * time.Millisecond,
			HeartbeatInterval: -1,
		},
	}
	for s := 0; s < sitesCount; s++ {
		tbCfg.Sites = append(tbCfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%d", s),
			Nodes: site.UniformNodes(nodesPerSite, 1),
		})
	}
	tb, err := site.NewTestbed(tbCfg)
	if err != nil {
		return E7Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return E7Row{}, err
	}
	survivor := tb.Sites[0].Proxy
	before := len(survivor.Candidates())

	// Kill the last site's proxy (and its nodes with it).
	victim := tb.Sites[len(tb.Sites)-1]
	start := time.Now()
	victim.Close()

	// Wait for the survivor to evict the dead peer.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(survivor.Peers()) == sitesCount-2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	detection := time.Since(start)
	after := len(survivor.Candidates())

	// The grid must still place work on the survivors.
	placementOK := false
	if _, err := survivor.Placement(nodesPerSite); err == nil {
		placementOK = true
	}

	// Recovery: boot a replacement site at the same addresses and time
	// how long the survivor's redial of the pinned site takes to
	// re-peer and restore the full inventory — no operator reconnect.
	restart := time.Now()
	var reconnect time.Duration
	recoveredOK := false
	if _, err := tb.RestartSite(victim.Name); err == nil {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if len(survivor.Candidates()) == before {
				recoveredOK = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		reconnect = time.Since(restart)
	}

	row := E7Row{
		Sites:        sitesCount,
		NodesPerSite: nodesPerSite,
		NodesBefore:  before,
		NodesAfter:   after,
		ExpectedFrac: float64(sitesCount-1) / float64(sitesCount),
		Detection:    detection,
		PlacementOK:  placementOK,
		Reconnect:    reconnect,
		RecoveredOK:  recoveredOK,
	}
	if before > 0 {
		row.SurvivingFrac = float64(after) / float64(before)
	}
	return row, nil
}

// E7Table renders E7 rows.
func E7Table(rows []E7Row) Table {
	t := Table{
		Title:  "E7 — failure containment: one proxy dies, then restarts",
		Claim:  "distributed control limits a proxy failure to its own site's resources; pinned peers are redialed and restore the grid unattended",
		Header: []string{"sites", "nodes/site", "nodes_before", "nodes_after", "surviving_frac", "expected_frac", "detection", "placement_ok", "reconnect", "recovered_ok"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.Sites), itoa(r.NodesPerSite), itoa(r.NodesBefore), itoa(r.NodesAfter),
			f2(r.SurvivingFrac), f2(r.ExpectedFrac), dur(r.Detection), fmt.Sprintf("%v", r.PlacementOK),
			dur(r.Reconnect), fmt.Sprintf("%v", r.RecoveredOK),
		})
	}
	return t
}
