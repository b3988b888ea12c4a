package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The processes under test are always children of the orchestrator, never the
// process that generated their inputs, so that CPU and peak RSS are theirs
// alone. Child modes are re-executions of this binary with a first argument
// that starts with an underscore.

// child prepares a re-execution of this binary. Pdeathsig makes the kernel
// kill the child when this process dies, so that an interrupted benchmark
// leaves nothing running.
func child(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return command(exe, args...), nil
}

func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runChild runs a child mode to completion and returns its standard output.
func runChild(args ...string) ([]byte, *os.ProcessState, error) {
	cmd, err := child(args...)
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, cmd.ProcessState, fmt.Errorf("child %s: %w", args[0], err)
	}
	return out.Bytes(), cmd.ProcessState, nil
}

// cpuOf is the user+system CPU time of an exited child; rssOf its peak
// resident set in MB (Linux reports ru_maxrss in KB).
func cpuOf(ps *os.ProcessState) time.Duration { return ps.UserTime() + ps.SystemTime() }

func rssOf(ps *os.ProcessState) float64 {
	return float64(ps.SysUsage().(*syscall.Rusage).Maxrss) / 1024
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat times: USER_HZ, 100 on every
// Linux port Go runs on.
const clockTick = time.Second / 100

// procCPU reads the user+system CPU time of a running process from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised name,
// which may itself hold spaces).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procHWM reads a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpuTicks reads the machine-wide CPU counters of /proc/stat: all ticks, and
// the ticks the hypervisor gave to someone else.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest is counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is a running server process under test.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon starts bin listening on a free loopback address and returns
// once GET readyPath answers 200.
func startDaemon(bin, readyPath string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = nil // the servers log every boot step; keep the report readable
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + readyPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("%s: not ready after 60 s", bin)
}

// stop asks the process to drain and waits until it has exited; a process
// that ignores SIGTERM for ten seconds is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// goBuild compiles the named packages of the repo's module into binDir. It
// runs before any clock starts.
func goBuild(modDir, binDir string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", binDir + string(os.PathSeparator)}, pkgs...)...)
	cmd.Dir = modDir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %v: %w", pkgs, err)
	}
	return nil
}
