//go:build !linux && !darwin

package hyracks

import "time"

// processCPU reports ok=false: there is no portable process CPU clock here,
// so every timed run counts.
func processCPU() (time.Duration, bool) { return 0, false }
