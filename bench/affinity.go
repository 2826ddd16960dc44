package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement for the daemon workloads. Left to the kernel, the
// generator's and ndnd's threads land on the same CPU in some runs and
// on different ones in others, and on a VM a wake-up across CPUs costs
// several times one within a CPU: window 1 through ndnd measured 3300
// fetches/s at 70 µs of ndnd CPU each in one run and 2300 at 200 µs in
// the next. So the placement is fixed, the way a load test keeps the
// generator off the server's cores: the bench process runs on the first
// CPU it is allowed, ndnd on all the others.

// cpuSet is a kernel CPU mask, 1024 CPUs wide like glibc's cpu_set_t.
type cpuSet [16]uint64

func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// getAffinity reads the CPUs thread tid may run on; 0 is the caller.
func getAffinity(tid int) (cpuSet, error) {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return set, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return set, nil
}

// setAffinity restricts thread tid to set; 0 is the caller.
func setAffinity(tid int, set cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// placement says where the daemon workloads' two processes run. The
// zero value leaves both to the kernel.
type placement struct {
	split          bool
	generator, sut cpuSet
}

// place divides the CPUs this process is allowed into the first, for
// the generator, and the rest, for the system under test, and moves
// this process onto the first. With fewer than two CPUs there is
// nothing to place. Call it once: afterwards the process is allowed
// one CPU only.
func place() (placement, error) {
	allowed, err := getAffinity(0)
	if err != nil {
		return placement{}, err
	}
	var p placement
	count := 0
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if !allowed.has(cpu) {
			continue
		}
		if count == 0 {
			p.generator.add(cpu)
		} else {
			p.sut.add(cpu)
		}
		count++
	}
	if count < 2 {
		return placement{}, nil
	}
	p.split = true
	return p, pinProcess(p.generator)
}

// pinProcess restricts every thread of this process to set. A thread
// inherits its creator's mask, so passes repeat until one finds no
// thread it had not already restricted.
func pinProcess(set cpuSet) error {
	pinned := make(map[int]bool)
	for {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, entry := range entries {
			tid, err := strconv.Atoi(entry.Name())
			if err != nil || pinned[tid] {
				continue
			}
			// ESRCH: the thread exited between the listing and now.
			if err := setAffinity(tid, set); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
			pinned[tid], fresh = true, true
		}
		if !fresh {
			return nil
		}
	}
}

// startOn runs start, which forks a process, so that the new process
// runs on set: a child inherits the mask of the thread that forks it,
// so the calling thread takes the mask for the duration of the fork and
// then its own back. An error may leave the process started.
func startOn(set cpuSet, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, set); err != nil {
		return err
	}
	startErr := start()
	if err := setAffinity(0, own); err != nil {
		return err
	}
	return startErr
}
