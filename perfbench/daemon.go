package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one dard or darc process started by the benchmark.
type daemon struct {
	role    string // "dard", "darc" or "worker<i>"
	bin     string
	extra   []string // flags beyond -addr and -data
	dataDir string
	url     string // base URL, known once the daemon logs its address
	cmd     *exec.Cmd
	exited  chan struct{}
	waitErr error
}

// fleet owns every process the benchmark starts, so that each one is
// stopped and waited for on every path out of a run.
type fleet struct {
	binDir string
	logDir string
	mu     sync.Mutex
	live   map[*daemon]bool
}

func newFleet(binDir, logDir string) *fleet {
	return &fleet{binDir: binDir, logDir: logDir, live: make(map[*daemon]bool)}
}

// readyTimeout bounds a daemon's launch up to its "listening on" line.
const readyTimeout = 60 * time.Second

// start launches bin (dard or darc) with args and returns once the
// daemon has logged its listening address. The address is always
// 127.0.0.1:0, so runs never collide on a port.
func (f *fleet) start(ctx context.Context, role, bin, dataDir string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, extra...)
	cmd := exec.Command(filepath.Join(f.binDir, bin), args...)
	// A daemon must not outlive the benchmark, even one killed hard.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logFile, err := os.OpenFile(filepath.Join(f.logDir, role+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	cmd.Stdout = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	d := &daemon{role: role, bin: bin, extra: extra, dataDir: dataDir, cmd: cmd, exited: make(chan struct{})}
	f.mu.Lock()
	f.live[d] = true
	f.mu.Unlock()

	addrc := make(chan string, 1)
	logCopy := make(chan struct{})
	go func() {
		defer close(logCopy)
		defer logFile.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // drain after an overlong line
	}()
	go func() {
		<-logCopy // Wait must not close the pipe under the reader
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case addr := <-addrc:
		// The daemon installs its SIGTERM handler and then starts
		// serving, so an answered health probe also means a later stop
		// drains it instead of killing it.
		d.url = "http://" + addr
		if err := f.healthy(ctx, d); err != nil {
			f.stop(d) //nolint:errcheck // already failing
			return nil, fmt.Errorf("%s: %w", role, err)
		}
		return d, nil
	case <-d.exited:
		f.forget(d)
		return nil, fmt.Errorf("%s exited before listening: %v (log %s)", role, d.waitErr, logFile.Name())
	case <-timer.C:
	case <-ctx.Done():
	}
	f.stop(d) //nolint:errcheck // already failing
	return nil, fmt.Errorf("%s did not start listening (log %s)", role, logFile.Name())
}

// healthy probes GET /healthz until the daemon answers.
func (f *fleet) healthy(ctx context.Context, d *daemon) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("no healthy answer: %v", err)
		}
		select {
		case <-d.exited:
			return fmt.Errorf("exited: %v", d.waitErr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (f *fleet) forget(d *daemon) {
	f.mu.Lock()
	delete(f.live, d)
	f.mu.Unlock()
}

// stop sends SIGTERM (dard and darc drain and exit cleanly on it),
// escalates to SIGKILL after a grace period, and waits for the exit.
func (f *fleet) stop(d *daemon) error {
	defer f.forget(d)
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exit is awaited below
	grace := time.NewTimer(20 * time.Second)
	defer grace.Stop()
	select {
	case <-d.exited:
		return d.waitErr
	case <-grace.C:
	}
	d.cmd.Process.Kill() //nolint:errcheck // exit is awaited below
	<-d.exited
	return errors.New(d.role + " ignored SIGTERM")
}

// stopAll stops every daemon still running.
func (f *fleet) stopAll() {
	f.mu.Lock()
	ds := make([]*daemon, 0, len(f.live))
	for d := range f.live {
		ds = append(ds, d)
	}
	f.mu.Unlock()
	for _, d := range ds {
		f.stop(d) //nolint:errcheck // best effort on the way out
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
