package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running innetcc process. Its stderr is scanned for Go
// runtime GC trace lines, which only appear when the process was started
// traced (GODEBUG=gctrace=1).
type proc struct {
	cmd    *osexec.Cmd
	start  time.Time
	traced bool // started with GODEBUG=gctrace=1

	exited  chan struct{} // closed once the process has been waited for
	end     time.Time     // exit time, valid after exited
	waitErr error         // cmd.Wait's result, valid after exited
	gcDone  chan struct{} // closed once stderr is drained

	mu   sync.Mutex
	gc   gcTotals
	tail []string // last stderr lines that were not GC trace lines
}

// gcTotals sums the GC trace of one process.
type gcTotals struct {
	cycles int
	cpuMs  float64
}

// childEnv is the environment of the program under test: the benchmark's
// own environment without any GODEBUG setting, plus gctrace=1 when traced.
func childEnv(traced bool) []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GODEBUG=") {
			env = append(env, kv)
		}
	}
	if traced {
		env = append(env, "GODEBUG=gctrace=1")
	}
	return env
}

// startProc launches bin with args. stdout, when non-nil, receives the
// process's standard output. The process is killed if the benchmark dies.
func startProc(bin string, args []string, dir string, traced bool, stdout io.Writer) (*proc, error) {
	cmd := osexec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = childEnv(traced)
	cmd.Stdout = stdout
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, traced: traced, exited: make(chan struct{}), gcDone: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go p.scanStderr(errPipe)
	go func() {
		<-p.gcDone // Wait closes the pipe, so drain it first
		p.waitErr = cmd.Wait()
		p.end = time.Now()
		close(p.exited)
	}()
	return p, nil
}

func (p *proc) scanStderr(r io.Reader) {
	defer close(p.gcDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		cpu, ok := parseGCLine(line)
		p.mu.Lock()
		if ok {
			p.gc.cycles++
			p.gc.cpuMs += cpu
		} else {
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
		}
		p.mu.Unlock()
	}
}

// parseGCLine reads one gctrace=1 line, e.g.
//
//	gc 7 @0.512s 3%: 0.02+1.1+0.01 ms clock, 0.05+0.2/0.9/0.4+0.03 ms cpu, ...
//
// and returns the sum of its CPU components (stop-the-world phases, assist,
// background and idle marking) in milliseconds.
func parseGCLine(line string) (float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	end := strings.Index(line, " ms cpu")
	if end < 0 {
		return 0, false
	}
	start := strings.LastIndex(line[:end], ", ")
	if start < 0 {
		return 0, false
	}
	var sum float64
	for _, f := range strings.FieldsFunc(line[start+2:end], func(r rune) bool { return r == '+' || r == '/' }) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

// wait waits for the process to exit (killing it after timeout) and
// returns its wall time since start, peak resident set in MB, GC totals
// and exit error.
func (p *proc) wait(timeout time.Duration) (wall time.Duration, rssMB float64, gc gcTotals, err error) {
	select {
	case <-p.exited:
		err = p.waitErr
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-p.exited
		err = fmt.Errorf("%s did not exit within %s", p.cmd.Path, timeout)
	}
	wall = p.end.Sub(p.start)
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	p.mu.Lock()
	gc = p.gc
	if err == nil && !p.traced && gc.cycles > 0 {
		err = fmt.Errorf("%s printed GC traces in an untraced run: GODEBUG leaked into its environment", p.cmd.Path)
	}
	if err != nil && len(p.tail) > 0 {
		err = fmt.Errorf("%w; stderr: %s", err, strings.Join(p.tail, " | "))
	}
	p.mu.Unlock()
	return wall, rssMB, gc, err
}

// stop asks the process to shut down with SIGTERM and waits for it.
func (p *proc) stop() (rssMB float64, gc gcTotals, err error) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	_, rssMB, gc, err = p.wait(20 * time.Second)
	return rssMB, gc, err
}

// kill ends the process without ceremony if it still runs; used on error
// paths, so it is safe after wait or stop.
func (p *proc) kill() {
	select {
	case <-p.exited:
	default:
		p.cmd.Process.Kill()
		<-p.exited
	}
}
