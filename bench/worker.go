package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/transport"
	"repro/internal/wmm"
)

// workerFlag re-executes the benchmark binary as a sink-hosting worker:
// "<binary> -role=worker <node name>". It is matched by hand before flag
// parsing so the test binary (whose flags belong to package testing) can be
// re-executed the same way.
const workerFlag = "-role=worker"

// maybeWorker turns the process into a worker when it was started as one,
// and never returns in that case.
func maybeWorker() {
	if len(os.Args) == 3 && os.Args[1] == workerFlag {
		if err := runWorker(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// runWorker does exactly what cmd/node's runWorker does without its
// registration round: host one default-options sink behind a transport
// server on a free loopback port, hand the address back on stdout, and serve
// until killed.
func runWorker(name string) error {
	srv := transport.NewServer(transport.ServerOptions{})
	srv.Host(name, wmm.NewSink(wmm.Options{}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Println(addr)
	select {} // serve until the parent kills us
}

// workerProc is one spawned worker.
type workerProc struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

func (p *workerProc) pid() int { return p.cmd.Process.Pid }

// spawnWorker starts a worker and waits for its address. Pdeathsig makes
// the kernel kill the worker if the benchmark dies without running stop —
// a signal, a panic, an os.Exit on an error path.
func spawnWorker(name string) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &workerProc{name: name, cmd: exec.Command(exe, workerFlag, name)}
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn worker %s: %w", name, err)
	}
	addrc := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		addrc <- strings.TrimSpace(line)
	}()
	select {
	case p.addr = <-addrc:
	case <-time.After(10 * time.Second):
	}
	if p.addr == "" {
		p.stop()
		return nil, fmt.Errorf("worker %s handed back no address; stderr: %s", name, p.stderr.String())
	}
	return p, nil
}

// stop kills the worker and reaps it.
func (p *workerProc) stop() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	p.cmd.Wait()         //nolint:errcheck // "signal: killed" is the expected outcome
}

// selfCPU is the benchmark process's user+system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times;
// it is 100 on every Linux platform Go supports.
const procTick = time.Second / 100

// procCPU is another process's user+system CPU time so far, from fields 14
// and 15 of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain spaces;
	// everything after the last ')' is space-separated starting at field 3.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * procTick, nil
}
