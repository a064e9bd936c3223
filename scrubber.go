package wasp

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wasp/internal/bundle"
	"wasp/internal/fault"
)

// ScrubberOptions configures a Scrubber. All fields are optional; a
// scrubber with no directory and no cache is a no-op.
type ScrubberOptions struct {
	// BundleDir, when non-empty, is re-walked every pass: each *.wspb
	// file is fully re-decoded (every section frame and CRC) and
	// renamed to <name>.bad on corruption.
	BundleDir string
	// Cache, when non-nil, has its resident entries re-hashed every
	// pass (Cache.ScrubEntries); corrupt entries are evicted.
	Cache *Cache
	// Interval is the pass cadence (default 1m). Each sleep is
	// jittered to interval/2 + rand(interval), so many daemons sharing
	// storage do not scrub in lockstep.
	Interval time.Duration
	// OnCorrupt, when non-nil, observes every corrupt artifact: the
	// file path (already renamed .bad) or "cache:<n>" for a pass that
	// evicted n cache entries, and the decode error (nil for cache
	// evictions). Called from the scrub goroutine; keep it brief.
	OnCorrupt func(path string, err error)
}

// ScrubberStats is a point-in-time snapshot of a Scrubber's counters.
type ScrubberStats struct {
	Passes       int64 `json:"passes"`        // completed scrub passes
	Files        int64 `json:"files"`         // artifact files re-validated
	Corrupt      int64 `json:"corrupt"`       // files renamed .bad
	CacheEntries int64 `json:"cache_entries"` // cache entries re-hashed
	CacheCorrupt int64 `json:"cache_corrupt"` // cache entries evicted as corrupt
	// LastError is the most recent corruption's message, empty while
	// every artifact has validated.
	LastError string `json:"last_error,omitempty"`
}

// Scrubber is the background integrity layer for at-rest artifacts:
// on a jittered cadence it re-reads every bundle file and re-hashes
// every resident cache entry, so bit rot is found by the scrubber
// instead of by a reload at the worst possible moment.
// A corrupt file is renamed aside to <name>.bad — out of every
// producer and consumer glob, preserved for forensics — and counted;
// corruption is never fatal and never stops a pass.
//
// Scrubbing is read-only with respect to healthy artifacts: files are
// decoded from a private in-memory copy, so the scrubber composes with
// concurrent bundle publishers (whose atomic rename it either pre- or
// post-dates) and injected disk faults can never make it
// mangle a good file.
type Scrubber struct {
	opt ScrubberOptions

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	passes       atomic.Int64
	files        atomic.Int64
	corrupt      atomic.Int64
	cacheEntries atomic.Int64
	cacheCorrupt atomic.Int64

	lastErr atomic.Pointer[string]
}

// NewScrubber returns a stopped scrubber; Start launches its loop, or
// call ScrubOnce directly for a synchronous pass.
func NewScrubber(opt ScrubberOptions) *Scrubber {
	if opt.Interval <= 0 {
		opt.Interval = time.Minute
	}
	return &Scrubber{opt: opt, quit: make(chan struct{})}
}

// Start launches the background scrub loop. Close stops it.
func (s *Scrubber) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			d := s.opt.Interval/2 + rand.N(s.opt.Interval)
			select {
			case <-s.quit:
				return
			case <-time.After(d):
				s.ScrubOnce()
			}
		}
	}()
}

// Close stops the scrub loop and waits for an in-flight pass to
// finish. Idempotent; nil-safe.
func (s *Scrubber) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// ScrubOnce runs one full pass synchronously — bundle dir, then cache
// — and returns how many artifacts (files plus cache entries) were
// found corrupt. Safe to call concurrently with the
// background loop and with producers writing new artifacts.
func (s *Scrubber) ScrubOnce() int {
	bad := 0
	if s.opt.BundleDir != "" {
		bad += s.scrubBundles()
	}
	if s.opt.Cache != nil {
		scanned, corrupt := s.opt.Cache.ScrubEntries()
		s.cacheEntries.Add(int64(scanned))
		if corrupt > 0 {
			s.cacheCorrupt.Add(int64(corrupt))
			bad += corrupt
			msg := "cache: " + strconv.Itoa(corrupt) + " entries failed re-hash"
			s.lastErr.Store(&msg)
			if s.opt.OnCorrupt != nil {
				s.opt.OnCorrupt("cache:"+strconv.Itoa(corrupt), nil)
			}
		}
	}
	s.passes.Add(1)
	return bad
}

// scrubBundles fully re-decodes every *.wspb file under BundleDir.
func (s *Scrubber) scrubBundles() int {
	files, err := filepath.Glob(filepath.Join(s.opt.BundleDir, "*.wspb"))
	if err != nil {
		return 0
	}
	bad := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			// Racing a producer's rename or a transient read fault —
			// skip, never condemn a file that could not even be read.
			continue
		}
		// Corruption site: a seeded chaos plan can flip one byte of the
		// in-memory image here, proving the decode below catches it.
		// The file on disk is never touched.
		if len(data) > 0 && fault.Hit(fault.FileCorrupt, 0) {
			data[len(data)/2] ^= 0x40
		}
		s.files.Add(1)
		_, derr := bundle.Read(bytes.NewReader(data))
		if derr == nil {
			continue
		}
		// The image was read whole, so a decode failure is structural —
		// bad magic, bad CRC, truncation — not a transient I/O fault.
		// Move the file out of every producer/consumer glob.
		if rerr := os.Rename(path, path+".bad"); rerr != nil {
			continue // racing another scrubber or a producer; next pass
		}
		bad++
		s.corrupt.Add(1)
		msg := path + ": " + derr.Error()
		s.lastErr.Store(&msg)
		if s.opt.OnCorrupt != nil {
			s.opt.OnCorrupt(path, derr)
		}
	}
	return bad
}

// Stats snapshots the scrubber's counters. Nil-safe (zero stats).
func (s *Scrubber) Stats() ScrubberStats {
	if s == nil {
		return ScrubberStats{}
	}
	st := ScrubberStats{
		Passes:       s.passes.Load(),
		Files:        s.files.Load(),
		Corrupt:      s.corrupt.Load(),
		CacheEntries: s.cacheEntries.Load(),
		CacheCorrupt: s.cacheCorrupt.Load(),
	}
	if msg := s.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}
