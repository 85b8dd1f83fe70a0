//go:build linux || darwin

package hyracks

import (
	"syscall"
	"time"
)

// processCPU reports the CPU time the whole process has used so far, user
// and system, across all its threads.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
