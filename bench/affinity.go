package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The reference sandbox's two vCPUs are not two cores. A probe — one
// spinning thread, then two — shows each of two busy threads running at
// full speed for some tens of seconds and at half speed for the next:
// the host gives the guest two cores' worth of time or one, and flips
// between the two. Whatever keeps both vCPUs busy (a saturated daemon on
// one, the generator on the other) therefore has two speeds, 1.7x apart,
// and no run length averages them. One busy vCPU has one speed. So the
// generator moves itself onto the first CPU it may use, and the daemon,
// which inherits the mask, runs there too: the pair is measured on one
// core, always.

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

func (s *cpuSet) first() (cpu int, ok bool) {
	for i, word := range s {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				return i*64 + b, true
			}
		}
	}
	return 0, false
}

// pinToFirstCPU moves every thread of this process, and so every thread
// and child it starts from now on, onto the first CPU it is allowed.
func pinToFirstCPU() (cpu int, err error) {
	var allowed cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu, ok := allowed.first()
	if !ok {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
		if errno != 0 && errno != syscall.ESRCH {
			return 0, fmt.Errorf("sched_setaffinity: %w", errno)
		}
	}
	return cpu, nil
}
