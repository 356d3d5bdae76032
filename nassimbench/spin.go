package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The serve workloads pass a request between two processes many times a
// millisecond. On a virtual machine, a vCPU with nothing to run halts, and
// waking it again waits on the hypervisor, whose delay depends on other
// tenants. Left alone, that wake-up delay — not the daemon — sets the
// serve latency, and it swung throughput by more than 2x between runs. A
// spinner process keeps every CPU runnable with SCHED_IDLE threads, which
// the kernel runs only when nothing else wants the CPU, so a vCPU never
// halts and the daemon and generator still get the CPU at once.

const schedIdle = 5 // SCHED_IDLE from <sched.h>

// runSpinner is the spinner process: one SCHED_IDLE busy thread per CPU
// until SIGTERM.
func runSpinner() error {
	var stop atomic.Bool
	errc := make(chan error, runtime.NumCPU())
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			var param [1]int32
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
				uintptr(unsafe.Pointer(&param[0]))); e != 0 {
				errc <- fmt.Errorf("spinner: sched_setscheduler: %v", e)
				return
			}
			errc <- nil
			for !stop.Load() {
			}
		}()
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		if err := <-errc; err != nil {
			stop.Store(true)
			return err
		}
	}
	// Tell the parent the threads are idle-class before it measures.
	fmt.Println("spinning")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	stop.Store(true)
	return nil
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first, so no spinner, daemon or sample process outlives a killed run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// spinner is a running spinner process.
type spinner struct{ cmd *exec.Cmd }

func startSpinner(self string) (*spinner, error) {
	cmd := exec.Command(self, "spin")
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spinner: %w", err)
	}
	buf := make([]byte, len("spinning\n"))
	if _, err := out.Read(buf); err != nil || string(buf) != "spinning\n" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("spinner did not start: %q %v", buf, err)
	}
	return &spinner{cmd: cmd}, nil
}

// stop ends the spinner and waits for it to exit.
func (s *spinner) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	s.cmd.Wait()
}
