package dbt

import "sync"

// The code cache is sharded so the main execution loop and the
// background pool's speculative jobs can hit it concurrently without a
// global lock: a power-of-two shard count indexed by a multiplicative
// hash of the block pc, one RWMutex per shard (QEMU's tb_jmp_cache /
// region-tree split collapsed to the needs of a simulator).

// cacheShards is the shard count; must be a power of two.
const cacheShards = 16

// cacheShardBits is log2(cacheShards).
const cacheShardBits = 4

type cacheShard struct {
	mu sync.RWMutex
	m  map[uint32]*tblock
}

type codeCache struct {
	shards [cacheShards]cacheShard
	// bmix folds the host backend id into the shard hash, namespacing
	// shard placement per backend exactly like rule.KeyFpSeedFor
	// namespaces retrieval keys — a cache warmed under one backend can
	// never alias the shard layout of another. Zero for backend 0, so
	// the historical x86 placement is unchanged.
	bmix uint32
}

func newCodeCache(bid uint8) *codeCache {
	c := &codeCache{bmix: uint32(bid) * 0x9e3779b9}
	for i := range c.shards {
		c.shards[i].m = make(map[uint32]*tblock)
	}
	return c
}

// shard picks the shard for a pc. Guest pcs are word-aligned, so the
// two low bits carry no information and are discarded before hashing.
func (c *codeCache) shard(pc uint32) *cacheShard {
	h := ((pc >> 2) ^ c.bmix) * 2654435761 // Knuth's multiplicative hash
	return &c.shards[h>>(32-cacheShardBits)]
}

func (c *codeCache) get(pc uint32) (*tblock, bool) {
	s := c.shard(pc)
	s.mu.RLock()
	tb, ok := s.m[pc]
	s.mu.RUnlock()
	return tb, ok
}

// putIfAbsent installs tb unless a translation is already present and
// returns the canonical block: first writer wins, so demand translation
// and speculative workers racing on the same pc agree on one tblock.
func (c *codeCache) putIfAbsent(pc uint32, tb *tblock) *tblock {
	s := c.shard(pc)
	s.mu.Lock()
	if cur, ok := s.m[pc]; ok {
		s.mu.Unlock()
		return cur
	}
	s.m[pc] = tb
	s.mu.Unlock()
	return tb
}

// put installs tb at pc unconditionally, returning the displaced
// translation (nil if none). Superblock installation uses it to replace
// the head pc's basic-block entry; everything else must go through
// putIfAbsent so demand and speculative translation agree on one block.
func (c *codeCache) put(pc uint32, tb *tblock) *tblock {
	s := c.shard(pc)
	s.mu.Lock()
	old := s.m[pc]
	s.m[pc] = tb
	s.mu.Unlock()
	return old
}

// remove deletes and returns the translation at pc (nil if absent).
func (c *codeCache) remove(pc uint32) *tblock {
	s := c.shard(pc)
	s.mu.Lock()
	tb := s.m[pc]
	delete(s.m, pc)
	s.mu.Unlock()
	return tb
}

// each calls f for every cached translation. Each shard is snapshotted
// under its read lock, so f runs lock-free and may call back into the
// cache (but sees a point-in-time view per shard).
func (c *codeCache) each(f func(pc uint32, tb *tblock)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		snap := make(map[uint32]*tblock, len(s.m))
		for pc, tb := range s.m {
			snap[pc] = tb
		}
		s.mu.RUnlock()
		for pc, tb := range snap {
			f(pc, tb)
		}
	}
}

// pcsWhere returns the pcs of every cached translation pred accepts —
// the guard layer uses it to find all blocks built from a quarantined
// rule so they can be invalidated together.
func (c *codeCache) pcsWhere(pred func(*tblock) bool) []uint32 {
	var out []uint32
	c.each(func(pc uint32, tb *tblock) {
		if pred(tb) {
			out = append(out, pc)
		}
	})
	return out
}

// pcsInShard returns the pcs currently cached in shard i (the
// fault-injection shard-drop scenario invalidates them all).
func (c *codeCache) pcsInShard(i int) []uint32 {
	s := &c.shards[i&(cacheShards-1)]
	s.mu.RLock()
	out := make([]uint32, 0, len(s.m))
	for pc := range s.m {
		out = append(out, pc)
	}
	s.mu.RUnlock()
	return out
}

// size reports the total number of cached translations.
func (c *codeCache) size() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
