package drbw

// Result caching.
//
// Re-analysis dominates fleet-scale profiling: CI reruns the same
// recordings, time-window drill-downs follow full-trace verdicts, and
// optimizer invocations repeat detections an earlier analyze already
// computed. Every one of those results is a pure function of (input
// content, tool configuration) — the run ledger proved reruns byte-
// identical — so they are safe to serve from a content-addressed cache.
//
// Keys are SHA-256 over three ingredients: a trace content fingerprint
// (O(index bytes) for checksummed indexed recordings, a full streaming hash
// otherwise — see profiledata.FileFingerprint), a config fingerprint
// (obs.HashConfig — the ledger's deterministic-section hash — over the
// machine, the trained tree, detection thresholds, and for simulation
// results the full engine config), and the cache schema version. Nothing is
// ever invalidated in place: a different input, model or schema simply
// hashes to a different key, and orphaned entries age out of the LRU
// budgets.
//
// Payloads are JSON (every field is exported and finite). Decoding always
// happens into fresh values, so cached results never alias between callers.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"drbw/internal/core"
	"drbw/internal/obs"
	"drbw/internal/profiledata"
	"drbw/internal/rcache"
)

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	// Hits counts lookups served from either tier; Shared counts callers
	// that piggybacked on a concurrent identical computation.
	Hits, Misses, Shared int64
	// Corrupt counts disk entries dropped for failing verification — each
	// was a silent miss followed by a recompute, never a wrong result.
	Corrupt int64
	// MemEvictions / DiskEvictions count entries pushed out by the budgets.
	MemEvictions, DiskEvictions int64
	// MemBytes / DiskBytes are the tiers' current footprints.
	MemBytes, DiskBytes int64
}

// Cache is a content-addressed result cache shared by any number of Tools
// (Tool.SetCache). Safe for concurrent use.
type Cache struct {
	c *rcache.Cache
}

// OpenCache opens a two-tier result cache backed by dir; an empty dir keeps
// the cache purely in-process. The directory is created if missing and may
// be shared across runs and processes — entries are checksummed on load and
// any damaged file reads as a miss. The in-process tier holds up to 64 MiB
// and the disk tier up to 1 GiB, evicting least recently used entries.
func OpenCache(dir string) (*Cache, error) {
	c, err := rcache.Open(rcache.Options{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("drbw: %w", err)
	}
	return &Cache{c: c}, nil
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	st := c.c.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Shared: st.Shared,
		Corrupt:      st.Corrupt,
		MemEvictions: st.MemEvictions, DiskEvictions: st.DiskEvictions,
		MemBytes: st.MemBytes, DiskBytes: st.DiskBytes,
	}
}

// Clear drops every entry from both tiers.
func (c *Cache) Clear() error { return c.c.Clear() }

// SetCache attaches a result cache to the tool. All trace-analysis entry
// points (AnalyzeTraceFile, AnalyzeTraceFileRange, AnalyzeTraceShards and
// AnalyzeTraceShardDir) and AutoOptimize consult it; nil detaches. Tools
// sharing one cache share its entries — the tool's trained model is part of
// every key, so differently-trained tools never collide.
func (t *Tool) SetCache(c *Cache) { t.cache = c }

// toolFingerprints lazily derives the tool's two config fingerprints.
type toolFingerprints struct {
	analysis string // trace analysis: machine + tree + thresholds
	sim      string // live simulation: analysis + full engine config
	err      error
}

// fingerprints returns the config fingerprints, computing them once. The
// analysis fingerprint covers exactly what determines a trace report:
// machine topology, trained tree, detection thresholds, timeline geometry.
// It deliberately excludes worker counts (bit-identical at any setting) and
// simulation parameters (a recording on disk is already past sampling), so
// re-analysis with different parallelism still hits. The simulation
// fingerprint adds the full engine config — seed included — for results
// that are produced by simulating (AutoOptimize).
func (t *Tool) fingerprints() (analysis, sim string, err error) {
	t.fpOnce.Do(func() {
		treeJSON, jerr := json.Marshal(t.detector.Tree)
		if jerr != nil {
			t.fp = toolFingerprints{err: jerr}
			return
		}
		treeHash := sha256.Sum256(treeJSON)
		cfg := map[string]string{
			"schema":           rcache.SchemaVersion,
			"machine":          t.machine.Name(),
			"tree":             hex.EncodeToString(treeHash[:]),
			"min_samples":      strconv.Itoa(t.detector.MinSamples),
			"timeline_buckets": strconv.Itoa(core.TimelineBuckets),
		}
		t.fp.analysis = obs.HashConfig(cfg)
		ecfg := t.cfg.engineConfig()
		ecfg.Collector = nil // per-run state, not configuration
		cfg["engine"] = fmt.Sprintf("%+v", ecfg)
		t.fp.sim = obs.HashConfig(cfg)
	})
	return t.fp.analysis, t.fp.sim, t.fp.err
}

// rangeToken encodes a time window into key material: exact float bits, so
// distinct windows — even ones selecting the same blocks — never collide.
func rangeToken(tr timeRange) string {
	if !tr.limited {
		return "full"
	}
	return fmt.Sprintf("range:%016x:%016x", math.Float64bits(tr.lo), math.Float64bits(tr.hi))
}

// caseToken encodes a benchmark case into key material.
func caseToken(c Case) string {
	return fmt.Sprintf("input=%s,threads=%d,nodes=%d,seed=%d", c.Input, c.Threads, c.Nodes, c.Seed)
}

// optsToken encodes the search options that shape the outcome.
func optsToken(o SearchOptions) string {
	return fmt.Sprintf("topk=%d,frontier=%d", o.TopObjects, o.Frontier)
}

// analyzeKey derives the cache key for one logical recording — its samples
// files in order, since file order changes the merged timeline — and a
// window. A samples fingerprint is O(index bytes) on a binary recording
// and a full hash otherwise; the objects table (tiny) is always hashed in
// full.
func (t *Tool) analyzeKey(samplePaths []string, objectsPath string, tr timeRange) (rcache.Key, error) {
	afp, _, err := t.fingerprints()
	if err != nil {
		return rcache.Key{}, err
	}
	ofp, err := profiledata.FileFingerprint(objectsPath)
	if err != nil {
		return rcache.Key{}, err
	}
	parts := []string{"analyze", afp, ofp, rangeToken(tr)}
	for _, p := range samplePaths {
		sfp, err := profiledata.FileFingerprint(p)
		if err != nil {
			return rcache.Key{}, err
		}
		parts = append(parts, sfp)
	}
	return rcache.KeyOf(parts...), nil
}

// errNotCacheable marks a computed result that could not be serialized; the
// result itself is still valid and returned to the caller.
var errNotCacheable = errors.New("drbw: result not cacheable")

// cached runs compute through the cache, for reports and optimizations
// alike: a hit decodes a fresh *T, a miss computes, stores and returns the
// live one. Concurrent identical computations share one run
// (singleflight). A cache entry that fails to decode falls back to
// recomputing — never to an error the uncached path would not produce.
func cached[T any](c *Cache, key rcache.Key, compute func() (*T, error)) (*T, error) {
	var computed *T
	val, _, err := c.c.Do(key, func() ([]byte, error) {
		v, cerr := compute()
		if cerr != nil {
			return nil, cerr
		}
		computed = v
		b, merr := json.Marshal(v)
		if merr != nil {
			return nil, errNotCacheable
		}
		return b, nil
	})
	if computed != nil {
		return computed, nil
	}
	if err != nil {
		if errors.Is(err, errNotCacheable) {
			// Another caller computed a result this schema cannot carry;
			// compute our own copy.
			return compute()
		}
		return nil, err
	}
	v := new(T)
	if uerr := json.Unmarshal(val, v); uerr != nil {
		return compute()
	}
	return v, nil
}

// detectKey addresses AutoOptimize's intermediate product, the detection
// report, cached separately from the search result so a rerun with
// different search options still skips a clean case's search.
func detectKey(simFP, bench string, c Case) rcache.Key {
	return rcache.KeyOf("detect", simFP, bench, caseToken(c))
}

// cachedDetectReport returns the cached detection report for the case.
func (t *Tool) cachedDetectReport(simFP, bench string, c Case) (*Report, bool) {
	val, ok := t.cache.c.Get(detectKey(simFP, bench, c))
	if !ok {
		return nil, false
	}
	rep := new(Report)
	if err := json.Unmarshal(val, rep); err != nil {
		return nil, false
	}
	return rep, true
}

func (t *Tool) putDetectReport(simFP, bench string, c Case, rep *Report) {
	if b, err := json.Marshal(rep); err == nil {
		t.cache.c.Put(detectKey(simFP, bench, c), b)
	}
}
