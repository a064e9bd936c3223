package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"wasp"
	"wasp/internal/fault"
)

// TestRetryDisk pins the retry helper's contract: transient errors are
// retried up to the attempt budget, success stops the loop, and ENOSPC
// short-circuits immediately — a full disk is not something
// millisecond backoffs can wait out, so the caller stops writing.
func TestRetryDisk(t *testing.T) {
	calls := 0
	err := retryDisk(3, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient: err %v after %d calls, want nil after 3", err, calls)
	}

	calls = 0
	err = retryDisk(3, time.Microsecond, func() error {
		calls++
		return fmt.Errorf("save: %w", syscall.ENOSPC)
	})
	if !errors.Is(err, syscall.ENOSPC) || calls != 1 {
		t.Fatalf("ENOSPC: err %v after %d calls, want ENOSPC after exactly 1", err, calls)
	}

	calls = 0
	err = retryDisk(3, time.Microsecond, func() error {
		calls++
		return errors.New("persistent")
	})
	if err == nil || calls != 3 {
		t.Fatalf("persistent: err %v after %d calls, want the last error after 3", err, calls)
	}
}

// TestRecoveryReadFaultsNeverFatal: recovery reads retry transient
// faults, and a file whose reads keep failing gets its one attempt and
// is dropped — logged, never fatal, never blocking the daemon from
// serving. Once the disk behaves, a clean file recovers normally.
func TestRecoveryReadFaultsNeverFatal(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	file := filepath.Join(dir, "ckpt-test-0.wsck")
	if err := wasp.SaveCheckpoint(file, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	cache := wasp.NewCache(wasp.CacheOptions{})
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Cache:   cache,
		Pool:    wasp.PoolOptions{Sessions: 1},
	})
	s := &server{reg: reg, cache: cache, ckptDir: dir}
	ctx := context.Background()

	fault.Activate(fault.NewPlan(fault.Config{Seed: 2, DiskReadErr: 1000}))
	s.recoverCheckpoints(ctx)
	fault.Deactivate()

	if got := s.recovered.Load(); got != 0 {
		t.Fatalf("recovered = %d under all-reads-fail, want 0", got)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Fatalf("unreadable snapshot file not dropped: %v", err)
	}
	if !reg.Servable() {
		t.Fatal("registry stopped serving after recovery read faults")
	}

	// A clean disk: the same file recovers end to end.
	if err := wasp.SaveCheckpoint(file, testCheckpoint(g)); err != nil {
		t.Fatal(err)
	}
	s.recoverCheckpoints(ctx)
	if got := s.recovered.Load(); got != 1 {
		t.Fatalf("recovered = %d after faults cleared, want 1", got)
	}
}

// TestScannerQuarantineBackoff drives the scanner's per-file failure
// handling: a failing bundle is quarantined (skipped without a load
// attempt, counted) until its jittered backoff elapses, retried after,
// and a stamp change — the producer republished — clears the
// quarantine immediately.
func TestScannerQuarantineBackoff(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	path := filepath.Join(dir, "qg.wspb")
	publish := func(version uint64) {
		t.Helper()
		b := &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "qg", Version: version}, Graph: g}
		if err := wasp.SaveBundle(path, b); err != nil {
			t.Fatal(err)
		}
		// Force a distinct stamp even when the write lands within the
		// filesystem's mtime granularity of the previous one.
		now := time.Now().Add(time.Duration(version) * time.Second)
		if err := os.Chtimes(path, now, now); err != nil {
			t.Fatal(err)
		}
	}
	publish(1)

	reg := newRegistry(t, "seed", wasp.FromEdges(2, true, []wasp.Edge{{From: 0, To: 1, W: 1}}),
		wasp.RegistryOptions{Options: wasp.Options{Workers: 2}, Pool: wasp.PoolOptions{Sessions: 1}})
	sc := newBundleScanner(reg, dir)
	sc.backoffBase = 30 * time.Millisecond
	sc.backoffMax = 60 * time.Millisecond
	ctx := context.Background()

	fault.Activate(fault.NewPlan(fault.Config{Seed: 5, BundleLoadErr: 1000}))
	defer fault.Deactivate()

	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("poisoned rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}
	if len(sc.errors()) != 1 {
		t.Fatalf("errors() = %v, want one entry", sc.errors())
	}

	// Quarantined: the immediate rescan skips the file entirely — no
	// load attempt, no rejection, one counted skip.
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 0 {
		t.Fatalf("quarantined rescan: loaded %d rejected %d, want 0/0", loaded, rejected)
	}
	if got := sc.quarantineSkips(); got != 1 {
		t.Fatalf("quarantineSkips = %d, want 1", got)
	}

	// The backoff elapses: the unchanged stamp is re-attempted (and
	// fails again, doubling the quarantine).
	time.Sleep(sc.backoffMax + sc.backoffMax/2 + 10*time.Millisecond)
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("post-backoff rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}

	// The producer republishes while the quarantine is fresh: the stamp
	// change forgives the history and the new content is attempted
	// immediately, no backoff wait.
	publish(2)
	if loaded, rejected := sc.rescan(ctx); loaded != 0 || rejected != 1 {
		t.Fatalf("republish-under-faults rescan: loaded %d rejected %d, want 0/1", loaded, rejected)
	}

	// The fault clears and the producer republishes: loads on the first
	// attempt, quarantine and rejection record cleared.
	fault.Deactivate()
	publish(3)
	if loaded, rejected := sc.rescan(ctx); loaded != 1 || rejected != 0 {
		t.Fatalf("healed rescan: loaded %d rejected %d, want 1/0", loaded, rejected)
	}
	if len(sc.errors()) != 0 {
		t.Fatalf("errors() after success = %v, want empty", sc.errors())
	}
	if _, ok := reg.Status("qg"); !ok {
		t.Fatal("healed bundle not registered")
	}
}
