package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
)

// The proxy side of the data plane: staging blobs between sites over
// dedicated tunnel data streams (proto.StreamStage), ahead of the
// control-plane commit that starts ranks. See DESIGN.md §12.

// stageDialer opens fresh stage streams to site's proxy; stage.Pull
// calls it once per stripe and again to resume after a link drop.
func (p *Proxy) stageDialer(site string) stage.Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		pr, err := p.peerFor(ctx, site)
		if err != nil {
			return nil, err
		}
		defer p.releasePeer(pr)
		open := &proto.StreamOpen{Kind: proto.StreamStage}
		stream, err := pr.session.Open(ctx, open.Encode(nil))
		if err != nil {
			return nil, fmt.Errorf("core: open stage stream to %s: %w", site, err)
		}
		return stream, nil
	}
}

// PullBlob fetches the blob ref names from a peer site's store into this
// proxy's store; ref.Size lays out the stripes without asking the peer
// first. A blob already held is a cache hit and transfers nothing.
func (p *Proxy) PullBlob(ctx context.Context, site string, ref proto.StageRef) error {
	hash := ref.Hash
	if p.store.Has(hash) {
		p.reg.Counter(metrics.StageCacheHits).Inc()
		p.log.Debug("stage cache hit", "site", site, "hash", hash)
		return nil
	}
	p.reg.Counter(metrics.StageCacheMisses).Inc()
	//lint:allow-wallclock monotonic transfer-duration measurement for the log; injected clocks have no monotonic reading
	start := time.Now()
	if err := stage.Pull(ctx, p.stageDialer(site), hash, ref.Size, p.store, p.stagecfg, p.reg); err != nil {
		p.log.Warn("stage pull failed", "site", site, "hash", hash, "err", err)
		return err
	}
	//lint:allow-wallclock monotonic transfer-duration measurement for the log; injected clocks have no monotonic reading
	p.log.Debug("stage pull complete", "site", site, "hash", hash, "bytes", ref.Size, "took", time.Since(start))
	return nil
}

// stageIn ensures every referenced blob is in the local store, pulling
// the missing ones from origin. Destinations run this during
// PrepareSpawn, so by the time the origin fans out CommitSpawn all
// inputs are site-local and a warm cache transfers nothing.
func (p *Proxy) stageIn(ctx context.Context, origin string, refs []proto.StageRef) error {
	for _, ref := range refs {
		if err := p.PullBlob(ctx, origin, ref); err != nil {
			return fmt.Errorf("core: stage in %q: %w", ref.Name, err)
		}
	}
	return nil
}

// resolveStageRefs checks that every referenced blob is present in this
// proxy's store — the origin-side precondition for launching a job with
// staged inputs — and sets each ref's Size from the store, since
// destinations lay out their pull stripes by it without asking first.
func (p *Proxy) resolveStageRefs(refs []proto.StageRef) error {
	for i, ref := range refs {
		if ref.Hash == "" {
			return fmt.Errorf("core: stage ref %q has no hash", ref.Name)
		}
		size, ok := p.store.Stat(ref.Hash)
		if !ok {
			return fmt.Errorf("core: stage ref %q (%s) not in this site's store; put it first", ref.Name, ref.Hash)
		}
		refs[i].Size = size
	}
	return nil
}

// stageEnv builds the node.Env staging hooks for ranks of an app: Input
// resolves staged names out of the local store, Publish records an
// output blob locally and hands its ref to record (nil-safe copies of
// refs are taken by value).
func (p *Proxy) stageEnv(refs []proto.StageRef, record func(ref proto.StageRef)) (func(string) ([]byte, bool), func(string, []byte) error) {
	byName := make(map[string]string, len(refs))
	for _, ref := range refs {
		byName[ref.Name] = ref.Hash
	}
	input := func(name string) ([]byte, bool) {
		hash, ok := byName[name]
		if !ok {
			return nil, false
		}
		return p.store.Get(hash)
	}
	publish := func(name string, data []byte) error {
		if name == "" {
			return fmt.Errorf("core: publish with empty name")
		}
		ref := p.store.Put(data)
		ref.Name = name
		record(proto.StageRef{Name: ref.Name, Hash: ref.Hash, Size: ref.Size})
		return nil
	}
	return input, publish
}

// wantOutput applies a StageOut filter: an empty filter returns every
// published output.
func wantOutput(filter []string, name string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

// JobOutputs returns the output refs recorded so far for a job launched
// from this proxy (empty for unknown jobs — job state has its own API).
func (p *Proxy) JobOutputs(appID string) []proto.StageRef {
	p.mu.Lock()
	js, ok := p.jobs[appID]
	p.mu.Unlock()
	if !ok || js.launch == nil {
		return nil
	}
	return js.launch.Outputs()
}

// pullOutputs fetches a completing job's published outputs back from
// the reporting site, skipping blobs already held (a rank that ran
// locally published straight into this store).
func (p *Proxy) pullOutputs(ctx context.Context, site string, refs []proto.StageRef) {
	for _, ref := range refs {
		if err := p.PullBlob(ctx, site, ref); err != nil {
			p.log.Warn("output pull failed", "site", site, "name", ref.Name, "err", err)
			continue
		}
		p.reg.Counter(metrics.StageOutputs).Inc()
	}
}
