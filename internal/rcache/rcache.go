// Package rcache is a two-tier content-addressed result cache: an
// in-process byte-budgeted LRU in front of a persistent on-disk tier.
//
// Values are opaque byte payloads addressed by a SHA-256 key the caller
// derives from the *content* of every input (trace fingerprint, config
// fingerprint, schema version). Content addressing is what makes the cache
// safe without any invalidation protocol: a changed input or a changed
// result schema produces a different key, so stale entries are never hit —
// they merely age out of the LRU budgets.
//
// The disk tier is crash-safe and corruption-tolerant by construction:
// entries are written to a temp file and renamed into place (readers never
// see a partial write), and every load re-verifies an embedded SHA-256
// checksum. A damaged entry is a silent miss — it is deleted, a flight-
// recorder event is logged, and the caller recomputes — never a wrong
// result. The in-process tier adds singleflight: concurrent callers of Do
// with the same key share one computation.
package rcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drbw/internal/obs"
)

// SchemaVersion names the cached-payload schema. Callers fold it into
// every key, so bumping it on an incompatible payload change orphans all
// old entries at once — invalidation by versioning, no migration code.
// Version 2 orphans the reports built from fractional-cycle samples.
const SchemaVersion = "drbw.rcache/2"

// Key addresses one cached value. Derive it with KeyOf from every input
// that determines the value.
type Key [sha256.Size]byte

// KeyOf hashes the parts into a Key. Parts are length-prefixed, so the
// boundary between adjacent parts is part of the identity ("ab","c" and
// "a","bc" produce different keys).
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Options configures Open.
type Options struct {
	// Dir is the disk tier's directory, created if missing; empty keeps the
	// cache purely in-process.
	Dir string
	// MemBytes budgets the in-process LRU (payload bytes; <= 0 uses 64 MiB).
	MemBytes int64
	// DiskBytes budgets the disk tier (entry file bytes; <= 0 uses 1 GiB).
	// When a write pushes the tier past the budget, the least recently used
	// entries (by file mtime — loads refresh it) are evicted.
	DiskBytes int64
}

// Stats is a point-in-time counter snapshot, for tests and CLI summaries.
type Stats struct {
	// Hits counts Get/Do calls served from either tier; Shared counts Do
	// calls that piggybacked on another caller's in-flight computation
	// (a subset of neither Hits nor Misses).
	Hits, Misses, Shared int64
	// Corrupt counts disk entries that failed checksum or framing checks
	// and were dropped; each one is also a flight-recorder event.
	Corrupt int64
	// MemEvictions / DiskEvictions count entries pushed out by the budgets.
	MemEvictions, DiskEvictions int64
	// MemBytes / DiskBytes are the tiers' current payload footprints.
	MemBytes, DiskBytes int64
}

// entryMagic opens every disk entry file, distinct from every trace magic.
const entryMagic = "DRBWRC1\n"

// entryHeaderLen is magic + payload SHA-256.
const entryHeaderLen = len(entryMagic) + sha256.Size

// entryExt names disk entries; the evicter only ever touches *.rc files.
const entryExt = ".rc"

type memEntry struct {
	key Key
	val []byte
}

type flight struct {
	wg  sync.WaitGroup
	val []byte
	err error
}

// Cache is the two-tier cache. All methods are safe for concurrent use.
type Cache struct {
	dir       string
	memBudget int64
	diskBudge int64

	mu       sync.Mutex
	mem      map[Key]*list.Element
	lru      *list.List // front = most recently used
	memBytes int64
	flights  map[Key]*flight

	// diskMu serializes disk-tier accounting and eviction; entry reads and
	// writes themselves run outside it.
	diskMu    sync.Mutex
	diskBytes int64

	hits, misses, shared, corrupt, memEvict, diskEvict atomic.Int64

	obsHits, obsMisses, obsShared, obsCorrupt *obs.Counter
	obsMemEvict, obsDiskEvict                 *obs.Counter
	obsMemBytes, obsDiskBytes                 *obs.Gauge
}

// Open creates a cache. With Options.Dir set, the directory is created and
// scanned so the disk budget accounts for entries left by earlier runs.
func Open(opt Options) (*Cache, error) {
	if opt.MemBytes <= 0 {
		opt.MemBytes = 64 << 20
	}
	if opt.DiskBytes <= 0 {
		opt.DiskBytes = 1 << 30
	}
	c := &Cache{
		dir:       opt.Dir,
		memBudget: opt.MemBytes,
		diskBudge: opt.DiskBytes,
		mem:       map[Key]*list.Element{},
		lru:       list.New(),
		flights:   map[Key]*flight{},

		obsHits:      obs.Default.Counter("rcache.hits"),
		obsMisses:    obs.Default.Counter("rcache.misses"),
		obsShared:    obs.Default.Counter("rcache.shared"),
		obsCorrupt:   obs.Default.Counter("rcache.corrupt"),
		obsMemEvict:  obs.Default.Counter("rcache.evictions.mem"),
		obsDiskEvict: obs.Default.Counter("rcache.evictions.disk"),
		obsMemBytes:  obs.Default.Gauge("rcache.bytes.mem"),
		obsDiskBytes: obs.Default.Gauge("rcache.bytes.disk"),
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("rcache: %w", err)
		}
		c.diskBytes = c.scanDisk()
		c.obsDiskBytes.Set(float64(c.diskBytes))
	}
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	memBytes := c.memBytes
	c.mu.Unlock()
	c.diskMu.Lock()
	diskBytes := c.diskBytes
	c.diskMu.Unlock()
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Shared: c.shared.Load(),
		Corrupt:      c.corrupt.Load(),
		MemEvictions: c.memEvict.Load(), DiskEvictions: c.diskEvict.Load(),
		MemBytes: memBytes, DiskBytes: diskBytes,
	}
}

// Get returns the cached payload for key, consulting memory then disk. The
// returned slice is shared — callers must not modify it.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if v, ok := c.memGet(key); ok {
		c.hit()
		return v, true
	}
	if v, ok := c.diskGet(key); ok {
		c.memPut(key, v)
		c.hit()
		return v, true
	}
	c.miss()
	return nil, false
}

// Put stores val under key in both tiers. val is retained — callers must
// not modify it afterwards.
func (c *Cache) Put(key Key, val []byte) {
	c.memPut(key, val)
	c.diskPut(key, val)
}

// Do returns the cached payload for key, computing and caching it on a
// miss. Concurrent calls with the same key share one computation
// (singleflight); hit reports whether this caller avoided computing —
// served from a tier or from another caller's in-flight work. Compute
// errors are returned to every caller of the sharing group and are never
// cached. The returned slice is shared — callers must not modify it.
func (c *Cache) Do(key Key, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.mem[key]; ok {
		c.lru.MoveToFront(e)
		v := e.Value.(*memEntry).val
		c.mu.Unlock()
		c.hit()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		f.wg.Wait()
		if f.err != nil {
			return nil, false, f.err
		}
		c.shared.Add(1)
		c.obsShared.Inc()
		return f.val, true, nil
	}
	f := &flight{}
	f.wg.Add(1)
	c.flights[key] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		f.wg.Done()
	}()
	if v, ok := c.diskGet(key); ok {
		c.memPut(key, v)
		f.val = v
		c.hit()
		return v, true, nil
	}
	v, cerr := compute()
	if cerr != nil {
		f.err = cerr
		return nil, false, cerr
	}
	c.Put(key, v)
	f.val = v
	c.miss()
	return v, false, nil
}

// Clear drops every entry from both tiers (benchmarks use it to re-create
// the cold state).
func (c *Cache) Clear() error {
	c.mu.Lock()
	c.mem = map[Key]*list.Element{}
	c.lru = list.New()
	c.memBytes = 0
	c.mu.Unlock()
	c.obsMemBytes.Set(0)
	if c.dir == "" {
		return nil
	}
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("rcache: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == entryExt {
			os.Remove(filepath.Join(c.dir, e.Name()))
		}
	}
	c.diskBytes = 0
	c.obsDiskBytes.Set(0)
	return nil
}

func (c *Cache) hit() {
	c.hits.Add(1)
	c.obsHits.Inc()
}

func (c *Cache) miss() {
	c.misses.Add(1)
	c.obsMisses.Inc()
}

// --- in-process tier ---

func (c *Cache) memGet(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*memEntry).val, true
}

func (c *Cache) memPut(key Key, val []byte) {
	c.mu.Lock()
	if e, ok := c.mem[key]; ok {
		me := e.Value.(*memEntry)
		c.memBytes += int64(len(val)) - int64(len(me.val))
		me.val = val
		c.lru.MoveToFront(e)
	} else {
		c.mem[key] = c.lru.PushFront(&memEntry{key: key, val: val})
		c.memBytes += int64(len(val))
	}
	evicted := 0
	for c.memBytes > c.memBudget && c.lru.Len() > 0 {
		back := c.lru.Back()
		me := back.Value.(*memEntry)
		c.lru.Remove(back)
		delete(c.mem, me.key)
		c.memBytes -= int64(len(me.val))
		evicted++
	}
	memBytes := c.memBytes
	c.mu.Unlock()
	if evicted > 0 {
		c.memEvict.Add(int64(evicted))
		c.obsMemEvict.Add(int64(evicted))
	}
	c.obsMemBytes.Set(float64(memBytes))
}

// --- disk tier ---

func (c *Cache) entryPath(key Key) string {
	return filepath.Join(c.dir, hex.EncodeToString(key[:])+entryExt)
}

// diskGet loads and verifies one entry. Any framing or checksum failure —
// a torn write survived by rename somehow, bit rot, truncation, a foreign
// file wearing the right name — deletes the entry and reads as a miss,
// never as data.
func (c *Cache) diskGet(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(data) < entryHeaderLen || string(data[:len(entryMagic)]) != entryMagic {
		c.dropCorrupt(path, int64(len(data)))
		return nil, false
	}
	payload := data[entryHeaderLen:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[len(entryMagic):entryHeaderLen]) {
		c.dropCorrupt(path, int64(len(data)))
		return nil, false
	}
	// Refresh recency for the disk LRU; best effort.
	now := time.Now()
	os.Chtimes(path, now, now)
	return payload, true
}

func (c *Cache) dropCorrupt(path string, size int64) {
	if os.Remove(path) == nil {
		c.diskMu.Lock()
		if c.diskBytes -= size; c.diskBytes < 0 {
			c.diskBytes = 0
		}
		c.obsDiskBytes.Set(float64(c.diskBytes))
		c.diskMu.Unlock()
	}
	c.corrupt.Add(1)
	c.obsCorrupt.Inc()
	obs.RecordEvent(obs.EventError, "rcache.corrupt_entry", size, 0)
}

// diskPut writes one entry atomically: temp file in the same directory,
// fsync-free rename into place. A crash mid-write leaves only a temp file
// the next eviction sweep ignores; readers see the old entry or the new
// one, never a mix.
func (c *Cache) diskPut(key Key, val []byte) {
	if c.dir == "" {
		return
	}
	path := c.entryPath(key)
	var oldSize int64
	if fi, err := os.Stat(path); err == nil {
		oldSize = fi.Size()
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return // cache writes are best effort; the result is still returned
	}
	sum := sha256.Sum256(val)
	_, werr := tmp.Write([]byte(entryMagic))
	if werr == nil {
		_, werr = tmp.Write(sum[:])
	}
	if werr == nil {
		_, werr = tmp.Write(val)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
		return
	}
	size := int64(entryHeaderLen + len(val))
	c.diskMu.Lock()
	c.diskBytes += size - oldSize
	over := c.diskBytes > c.diskBudge
	c.obsDiskBytes.Set(float64(c.diskBytes))
	c.diskMu.Unlock()
	if over {
		c.evictDisk(key)
	}
}

// scanDisk sums the existing entry files (and sweeps stale temp files).
func (c *Cache) scanDisk() int64 {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if filepath.Ext(name) != entryExt {
			if len(name) > 4 && name[:4] == ".tmp" {
				os.Remove(filepath.Join(c.dir, name))
			}
			continue
		}
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// evictDisk removes least-recently-used entries (oldest mtime first, names
// as a deterministic tiebreak) until the tier fits its budget again. The
// entry just written for keep is spared — evicting the value the caller is
// about to rely on would defeat the Put.
func (c *Cache) evictDisk(keep Key) {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != entryExt {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, entry{name: e.Name(), size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	keepName := hex.EncodeToString(keep[:]) + entryExt
	evicted := 0
	for _, f := range files {
		if total <= c.diskBudge {
			break
		}
		if f.name == keepName {
			continue
		}
		if os.Remove(filepath.Join(c.dir, f.name)) == nil {
			total -= f.size
			evicted++
		}
	}
	c.diskBytes = total
	c.obsDiskBytes.Set(float64(total))
	if evicted > 0 {
		c.diskEvict.Add(int64(evicted))
		c.obsDiskEvict.Add(int64(evicted))
	}
}
