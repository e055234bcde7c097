package dbt

import (
	"fmt"

	"paramdbt/internal/artifact"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
)

// This file is the engine side of warm-start persistence (the store
// itself lives in internal/artifact; docs/PERSISTENCE.md is the
// design). The engine restores on construction and publishes on clean
// halt; everything in between is the ordinary engine. Restored blocks
// and traces go through the normal translation pipeline — the artifact
// records only WHERE to translate — so a warm engine executes exactly
// the host code a cold engine would, and every guard-layer protection
// applies to restored code unchanged.

// EngineVersion names the translation-output version for artifact keys.
// Bump it whenever the translator, register allocator, superblock
// former or backend lowering changes observable output: a version
// mismatch turns every prior artifact into a miss, which is the entire
// point — stale translations must never be applied.
const EngineVersion = "paramdbt-engine/8"

// WarmStats reports the outcome of the warm-start restore New performed
// (zero value when Config.ArtifactDir was empty). Hits/Misses/Rejects
// count this engine's own store lookups — the dbt.artifact_* counters
// aggregate across engines when a registry is shared.
type WarmStats struct {
	Enabled bool   // Config.ArtifactDir was set
	Err     string // first restore/publish failure, if any (engine degraded to cold)

	Hits    int // artifact lookups that returned a payload
	Misses  int // lookups with nothing recorded under the key
	Rejects int // artifacts refused as corrupt or undecodable

	Blocks      int // basic blocks restored into the code cache
	Traces      int // superblocks re-formed from restored traces
	Quarantined int // rules demoted by the store's quarantine shard
}

// WarmStats reports what the warm-start restore did. Valid any time
// after New.
func (e *Engine) WarmStats() WarmStats { return e.warm }

// initArtifacts opens the store and restores, called at the end of New.
// Every failure degrades to a cold start: the error is recorded in
// WarmStats, never surfaced from New — a damaged cache directory must
// not stop the translator from doing what it can always do, translate.
func (e *Engine) initArtifacts() {
	dir := e.Cfg.ArtifactDir
	if dir == "" {
		return
	}
	e.warm.Enabled = true
	st, err := artifact.Open(dir, e.met.reg)
	if err != nil {
		e.warm.Err = err.Error()
		return
	}
	e.art = st

	// The quarantine shard applies before any translation: a rule some
	// other engine caught diverging must be demoted here before it can
	// be matched, or the first run over this code would re-learn the
	// divergence the hard way.
	if e.Cfg.Rules != nil {
		entries, qerr := st.LoadQuarantine()
		if qerr != nil {
			st.MarkReject()
			e.warm.Rejects++
			e.warm.Err = fmt.Sprintf("quarantine shard: %v", qerr)
		} else if len(entries) > 0 {
			e.warm.Quarantined = e.Cfg.Rules.ApplyQuarantine(entries)
		}
	}

	var fp uint64
	if e.Cfg.Rules != nil {
		fp = e.Cfg.Rules.Fingerprint64()
	}
	e.artKey = artifact.Key{
		CodeHash: e.Mem.Checksum(env.CodeBase, env.DataBase),
		Backend:  e.tr.be.ID(),
		RuleFp:   fp,
		Version:  EngineVersion,
	}

	payload, res := st.Get(artifact.KindBlocks, e.artKey)
	switch res {
	case artifact.Miss:
		e.warm.Misses++
		return
	case artifact.Reject:
		e.warm.Rejects++
		return
	}
	e.warm.Hits++
	m, err := artifact.DecodeManifest(payload)
	if err != nil {
		st.MarkReject()
		e.warm.Rejects++
		e.warm.Err = err.Error()
		return
	}
	if err := e.verifyManifestPages(m); err != nil {
		st.MarkReject()
		e.warm.Rejects++
		e.warm.Err = err.Error()
		return
	}
	e.restoreManifest(m)
}

// verifyManifestPages checks the manifest's recorded page digests
// against live memory. Any mismatch — or a manifest that records blocks
// but no page sums at all — is a reject, not a miss: the artifact
// claims to describe this code image and is wrong, which is the one
// failure warm start must never act on (a guest that modified a
// translated page since publish would otherwise warm-start stale
// translations the write-tracking fence cannot see — they predate the
// tracker).
func (e *Engine) verifyManifestPages(m *artifact.BlockManifest) error {
	if len(m.Pages) == 0 {
		if len(m.Blocks) > 0 {
			return fmt.Errorf("manifest records %d blocks but no page checksums", len(m.Blocks))
		}
		return nil
	}
	for _, ps := range m.Pages {
		if got := e.Mem.Checksum(ps.Base, ps.Base+mem.PageSize); got != ps.Sum {
			return fmt.Errorf("guest page %#x changed since publish (sum %#x, recorded %#x)", ps.Base, got, ps.Sum)
		}
	}
	return nil
}

// restoreManifest rebuilds the code cache from a decoded manifest:
// every recorded block is demand-translated through the normal path,
// then every recorded trace is re-grown into a superblock (subject to
// the same HotThreshold/NoChain/TraceBudget policy as live formation —
// a manifest from a trace-forming engine restores plain blocks only
// into an engine configured without traces).
func (e *Engine) restoreManifest(m *artifact.BlockManifest) {
	for _, pc := range m.Blocks {
		if pc%guest.InstBytes != 0 || pc < env.CodeBase || pc >= env.DataBase {
			// Structurally impossible block address: the manifest does not
			// describe this (or any) code image. Checksummed payloads make
			// this unreachable short of a sha collision, but cheap belt
			// over braces: refuse the rest rather than decode garbage.
			e.art.MarkReject()
			e.warm.Rejects++
			e.warm.Err = fmt.Sprintf("manifest block pc %#x out of range", pc)
			return
		}
		if _, err := e.block(pc, false); err != nil {
			e.art.MarkReject()
			e.warm.Rejects++
			e.warm.Err = fmt.Sprintf("restoring block %#x: %v", pc, err)
			return
		}
		e.warm.Blocks++
	}
	if e.Cfg.HotThreshold == 0 || e.Cfg.NoChain {
		return
	}
	for _, pcs := range m.Traces {
		if e.Cfg.TraceBudget > 0 && e.sbSpent >= e.Cfg.TraceBudget {
			return
		}
		if len(pcs) > traceMaxBlocks {
			continue
		}
		htb, ok := e.cache[pcs[0]]
		if !ok || len(htb.segs) > 1 {
			continue
		}
		// Translation validates every seam against the recorded successor,
		// so a trace that does not match this code image fails here and is
		// skipped — restore keeps the plain blocks.
		if e.installTrace(pcs, htb) != nil {
			e.warm.Traces++
		}
	}
}

// publishArtifacts writes the engine's current translation set back to
// the store, called when Run ends in a clean HLT (the one point the
// whole cache is known-good). The code hash is recomputed — guest code
// may have been modified since New — so the manifest is keyed to the
// image it actually describes. Publish failures are recorded in
// WarmStats and never fail the run.
func (e *Engine) publishArtifacts() {
	if e.art == nil {
		return
	}
	var m artifact.BlockManifest
	pageSet := map[uint32]bool{}
	addPages := func(lo, hi uint32) {
		for k := lo >> mem.PageBits; k <= (hi-1)>>mem.PageBits; k++ {
			pageSet[k<<mem.PageBits] = true
		}
	}
	for pc, tb := range e.cache {
		if len(tb.segs) > 1 {
			// A superblock owns its head's cache slot; record the trace AND
			// the head as a plain block — restore needs the head's per-block
			// translation cached before it can re-grow the trace.
			pcs := make([]uint32, len(tb.segs))
			for i, s := range tb.segs {
				pcs[i] = s.pc
			}
			m.Traces = append(m.Traces, pcs)
		}
		for _, r := range tb.ranges {
			addPages(r[0], r[1])
		}
		m.Blocks = append(m.Blocks, pc)
	}
	// Record the digest of every page the recorded translations were
	// decoded from; restore refuses the manifest if any differs (see
	// verifyManifestPages).
	for base := range pageSet {
		m.Pages = append(m.Pages, artifact.PageSum{Base: base, Sum: e.Mem.Checksum(base, base+mem.PageSize)})
	}
	payload, err := m.Encode()
	if err != nil {
		if e.warm.Err == "" {
			e.warm.Err = err.Error()
		}
		return
	}
	key := e.artKey
	key.CodeHash = e.Mem.Checksum(env.CodeBase, env.DataBase)
	if err := e.art.Put(artifact.KindBlocks, key, payload); err != nil {
		if e.warm.Err == "" {
			e.warm.Err = err.Error()
		}
		return
	}
	if e.Cfg.Rules != nil && e.Cfg.Rules.QuarantineLen() > 0 {
		if _, err := e.art.MergeQuarantine(e.Cfg.Rules.Quarantined()); err != nil && e.warm.Err == "" {
			e.warm.Err = err.Error()
		}
	}
}
