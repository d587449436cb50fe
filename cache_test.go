package drbw_test

// Tests for the result cache at the Tool level: cached results must be
// indistinguishable from recomputation (same reports, same ledger bytes),
// corruption must read as a miss, and concurrent identical analyses must
// share one computation.

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"drbw"
	"drbw/internal/obs"
)

// withCache attaches a fresh disk-backed cache to the shared tool and
// detaches it when the test ends (the tool is shared across tests).
func withCache(t *testing.T, tl *drbw.Tool, dir string) *drbw.Cache {
	t.Helper()
	cache, err := drbw.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	tl.SetCache(cache)
	t.Cleanup(func() { tl.SetCache(nil) })
	return cache
}

// ledgerBytes renders a report the way the CLIs' run ledgers do, reduced to
// the deterministic (fingerprinted) section.
func ledgerBytes(t *testing.T, name string, rep *drbw.Report) []byte {
	t.Helper()
	led := obs.NewLedger("test", map[string]string{"case": name})
	led.AddResult(drbw.ReportLedgerResult(name, rep, nil))
	b, err := led.DeterministicBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheMatchesRecompute pins the cache's core contract across every
// cached analysis path: a warm hit returns a report deep-equal to an
// uncached recomputation, with identical ledger bytes — whether the hit
// comes from the memory tier, the disk tier (a fresh cache instance on the
// same directory), a windowed range query, or the shard merger.
func TestCacheMatchesRecompute(t *testing.T) {
	tl := sharedTool(t)
	td, sPath, oPath := recordTo(t, tl, 71, drbw.FormatBinary)
	dir := t.TempDir()

	// The uncached reference.
	want, err := tl.AnalyzeTraceFile(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}

	cache := withCache(t, tl, dir)

	cold, err := tl.AnalyzeTraceFile(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold run: stats %+v, want exactly one miss", st)
	}
	warm, err := tl.AnalyzeTraceFile(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("warm run: stats %+v, want exactly one hit", st)
	}
	for name, rep := range map[string]*drbw.Report{"cold": cold, "warm": warm} {
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("%s cached report differs from uncached recomputation:\n%v\nvs\n%v", name, rep, want)
		}
	}
	if got, ref := ledgerBytes(t, "case", warm), ledgerBytes(t, "case", want); string(got) != string(ref) {
		t.Fatalf("warm hit changes the ledger's deterministic bytes:\n%s\nvs\n%s", got, ref)
	}

	t.Run("disk tier", func(t *testing.T) {
		// A fresh cache instance on the same directory has an empty memory
		// tier; the hit must come from disk.
		fresh := withCache(t, tl, dir)
		rep, err := tl.AnalyzeTraceFile(sPath, oPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatal("disk-tier hit differs from recomputation")
		}
		if st := fresh.Stats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("disk-tier stats %+v, want one hit and no misses", st)
		}
	})

	t.Run("range", func(t *testing.T) {
		lo, hi := td.Samples[0].Time, td.Samples[0].Time
		for _, s := range td.Samples {
			if s.Time < lo {
				lo = s.Time
			}
			if s.Time > hi {
				hi = s.Time
			}
		}
		tl.SetCache(nil)
		want, err := tl.AnalyzeTraceFileRange(sPath, oPath, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		tl.SetCache(cache)
		for pass := 0; pass < 2; pass++ {
			rep, err := tl.AnalyzeTraceFileRange(sPath, oPath, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("pass %d: cached range report differs from recomputation", pass)
			}
		}
		// A different window must be a different key, not a stale hit.
		if rep, err := tl.AnalyzeTraceFileRange(sPath, oPath, lo, lo+(hi-lo)/4); err == nil && reflect.DeepEqual(rep, want) {
			t.Fatal("a narrower window returned the full window's report")
		}
	})

	t.Run("shards", func(t *testing.T) {
		// Split the recording into two shards sharing the objects table.
		sdir := t.TempDir()
		half := len(td.Samples) / 2
		shards := []string{filepath.Join(sdir, "a.bin"), filepath.Join(sdir, "b.bin")}
		for i, part := range [][]drbw.SampleRecord{td.Samples[:half], td.Samples[half:]} {
			sub := &drbw.TraceData{Samples: part, Objects: td.Objects, Weight: td.Weight}
			if err := sub.SaveAs(shards[i], filepath.Join(sdir, "objects.csv"), drbw.FormatBinary); err != nil {
				t.Fatal(err)
			}
		}
		objects := filepath.Join(sdir, "objects.csv")
		tl.SetCache(nil)
		want, err := tl.AnalyzeTraceShards(shards, objects)
		if err != nil {
			t.Fatal(err)
		}
		tl.SetCache(cache)
		before := cache.Stats()
		for pass := 0; pass < 2; pass++ {
			rep, err := tl.AnalyzeTraceShards(shards, objects)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("pass %d: cached shard report differs from recomputation", pass)
			}
		}
		after := cache.Stats()
		if after.Misses != before.Misses+1 || after.Hits != before.Hits+1 {
			t.Fatalf("shard stats went %+v -> %+v, want one new miss and one new hit", before, after)
		}
	})
}

// TestCacheCorruptEntryRecomputes flips bits in a persisted entry and
// proves the damage surfaces as a silent miss plus a correct recompute —
// never as a wrong or truncated report.
func TestCacheCorruptEntryRecomputes(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 73, drbw.FormatBinary)
	dir := t.TempDir()

	withCache(t, tl, dir)
	want, err := tl.AnalyzeTraceFile(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.rc"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry on disk, got %v (err %v)", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh instance on the same directory must see the damage (the old
	// instance would serve the memory tier and never touch the file).
	fresh := withCache(t, tl, dir)
	rep, err := tl.AnalyzeTraceFile(sPath, oPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatal("report after corruption differs from the original computation")
	}
	st := fresh.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want the corrupt entry counted and a recompute", st)
	}
	if _, err := os.Stat(entries[0]); err == nil {
		// The recompute rewrites the entry; it must now verify.
		fresh2 := withCache(t, tl, dir)
		if _, err := tl.AnalyzeTraceFile(sPath, oPath); err != nil {
			t.Fatal(err)
		}
		if st := fresh2.Stats(); st.Hits != 1 || st.Corrupt != 0 {
			t.Fatalf("rewritten entry stats %+v, want a clean hit", st)
		}
	}
}

// TestCacheConcurrentSingleflight hammers one key from many goroutines.
// Run under -race this also proves the decoded reports don't alias.
func TestCacheConcurrentSingleflight(t *testing.T) {
	tl := sharedTool(t)
	_, sPath, oPath := recordTo(t, tl, 83, drbw.FormatBinary)
	cache := withCache(t, tl, t.TempDir())

	const n = 8
	reports := make([]*drbw.Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = tl.AnalyzeTraceFile(sPath, oPath)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(reports[i], reports[0]) {
			t.Fatalf("concurrent report %d differs", i)
		}
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want one computation for %d concurrent callers", st, n)
	}
}

// TestAutoOptimizeCache proves the optimizer's cache tiers: a repeat run is
// a whole-result hit, and a rerun with different search options reuses the
// cached baseline measurement (visible as extra hits) while still producing
// a live search result.
func TestAutoOptimizeCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a placement search")
	}
	tl := sharedTool(t)
	cache := withCache(t, tl, t.TempDir())
	c := drbw.Case{Input: "native", Threads: 32, Nodes: 4, Seed: 7}
	opts := drbw.SearchOptions{TopObjects: 1, Frontier: 2}

	first, err := tl.AutoOptimize("Streamcluster", c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Detected {
		t.Fatal("expected the contended case to be detected")
	}
	afterFirst := cache.Stats()
	second, err := tl.AutoOptimize("Streamcluster", c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("cached optimization differs from the original:\n%+v\nvs\n%+v", second, first)
	}
	if st := cache.Stats(); st.Hits != afterFirst.Hits+1 {
		t.Fatalf("stats %+v after repeat run, want one more hit than %+v", st, afterFirst)
	}

	// Different search options: the full-result key misses, but the cached
	// baseline (and detection verdict) are reused.
	afterSecond := cache.Stats()
	third, err := tl.AutoOptimize("Streamcluster", c, drbw.SearchOptions{TopObjects: 1, Frontier: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Detected {
		t.Fatal("rerun with new options lost the detection")
	}
	if !reflect.DeepEqual(third.Report, first.Report) {
		t.Fatal("rerun with new options produced a different detection report")
	}
	st := cache.Stats()
	if st.Misses <= afterSecond.Misses {
		t.Fatalf("stats %+v, want the new options to miss the full-result key", st)
	}
	if st.Hits <= afterSecond.Hits {
		t.Fatalf("stats %+v, want the baseline measurement served from cache", st)
	}
}
