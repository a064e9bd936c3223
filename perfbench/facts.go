package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// facts describe the host and the build a run measured.
type facts struct {
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPU         string   `json:"cpu"`
	GoVersion   string   `json:"go_version"`
	Source      string   `json:"source"`
	DaemonFlags []string `json:"daemon_flags,omitempty"`
	Conns       int      `json:"connections"`
	// StealFrac is the share of CPU time the hypervisor took from this
	// host while the run measured, from /proc/stat; -1 when unknown.
	StealFrac float64 `json:"steal_frac"`
}

func collectFacts(repoRoot string) facts {
	return facts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Source:     sourceID(repoRoot),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the measured code: a SHA-256 over the module's Go
// sources and go.mod, so two runs of the same tree carry the same id,
// preceded by the git commit when the checkout is a repository. A
// commit alone would name two different trees the same whenever one
// of them has uncommitted changes.
func sourceID(root string) string {
	id := "sha256:" + sourceHash(root)
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		id = "git:" + strings.TrimSpace(string(out)) + "+" + id
	}
	return id
}

// sourceHash hashes the module's Go sources and go.mod, outside the
// benchmark's own directory.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks returns the host's steal and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range fields[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user … steal; guest time is already counted in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total, true
}

// stealTick is how often a stealClock samples /proc/stat. The kernel
// counts CPU time in 10 ms ticks, so a 0.5 s window on two cores spans
// about 100 of them.
const stealTick = 100 * time.Millisecond

// stealClock samples the host's steal and total CPU ticks every
// stealTick while a run measures, so that any interval of the run can
// be given the share of CPU time the hypervisor took from the host
// during it. On a shared host that share decides more of a latency
// figure than the program does, so the end-to-end figures come from
// the intervals with the least of it.
type stealClock struct {
	mu      sync.Mutex
	samples []tickSample
	stop    chan struct{}
	done    chan struct{}
}

type tickSample struct {
	at           time.Time
	steal, total float64
}

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

// sample records the ticks now. A share over an interval is known once
// a sample has been taken after its end.
func (c *stealClock) sample() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, t, ok := cpuTicks(); ok {
		c.samples = append(c.samples, tickSample{time.Now(), s, t})
	}
}

// close stops the sampler and waits for it.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// share returns the steal share over [a, b], widened to the samples
// just outside it, or -1 when /proc/stat gave too few samples.
func (c *stealClock) share(a, b time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at.After(a) }) - 1
	j := sort.Search(len(c.samples), func(j int) bool { return !c.samples[j].at.Before(b) })
	i, j = max(i, 0), min(j, len(c.samples)-1)
	if i >= j || c.samples[j].total <= c.samples[i].total {
		return -1
	}
	return (c.samples[j].steal - c.samples[i].steal) / (c.samples[j].total - c.samples[i].total)
}
