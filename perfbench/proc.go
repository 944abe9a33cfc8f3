package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("stat: no command name")
	}
	// After the name: field 3 (state) is index 0, so utime (field 14)
	// is index 11 and stime (field 15) index 12.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseVmHWM returns peak resident set size in bytes from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("status: no VmHWM line")
}

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// child is one started process. Its waiter goroutine is the only
// caller of Wait; done closes when the process has exited.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // Wait's result, readable once done is closed
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child's process group and waits for it to exit.
func (c *child) kill() {
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL) // ESRCH once it has exited
	<-c.done
}

// reaper starts every child process in its own process group and kills
// all of them on every exit path: a normal return, an error, and
// SIGINT or SIGTERM, so an aborted run never leaves replicas burning
// CPU under the next one.
type reaper struct {
	mu     sync.Mutex
	live   map[*child]struct{}
	closed bool
}

// newReaper returns a reaper that, on SIGINT or SIGTERM, kills every
// child, runs cleanup and exits.
func newReaper(cleanup func()) *reaper {
	r := &reaper{live: map[*child]struct{}{}}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		r.killAll()
		cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: %v: children stopped\n", s)
		os.Exit(130)
	}()
	return r
}

func (r *reaper) start(cmd *exec.Cmd) (*child, error) {
	// Pdeathsig also covers the benchmark itself being SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("shutting down")
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	r.live[c] = struct{}{}
	go func() {
		c.err = cmd.Wait()
		r.mu.Lock()
		delete(r.live, c)
		r.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// run starts cmd and waits for it to finish.
func (r *reaper) run(cmd *exec.Cmd) error {
	c, err := r.start(cmd)
	if err != nil {
		return err
	}
	<-c.done
	return c.err
}

// killAll kills every live child and refuses new ones.
func (r *reaper) killAll() {
	r.mu.Lock()
	r.closed = true
	live := make([]*child, 0, len(r.live))
	for c := range r.live {
		live = append(live, c)
	}
	r.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}
