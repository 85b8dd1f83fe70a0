package bench

import (
	"testing"
	"time"
)

// bestOf is the kernel gates' one timing loop. It runs every pass once as a
// warm-up, then rounds of all passes until minDur per pass has elapsed (at
// least one round), and returns each pass's fastest time in seconds. The
// order of the passes reverses every round, so drift of the machine
// (frequency scaling, co-tenants, sibling test processes) cancels instead of
// biasing one side of a ratio. Allocation bounds are taken separately with
// testing.AllocsPerRun, which keeps stop-the-world stats reads out of the
// timed rounds.
func bestOf(t *testing.T, minDur time.Duration, passes ...func() error) []float64 {
	t.Helper()
	for _, pass := range passes {
		if err := pass(); err != nil {
			t.Fatal(err)
		}
	}
	secs := make([]float64, len(passes))
	rounds := 0
	for deadline := time.Now().Add(minDur * time.Duration(len(passes))); rounds == 0 || time.Now().Before(deadline); rounds++ {
		for k := range passes {
			i := k
			if rounds%2 == 1 {
				i = len(passes) - 1 - k
			}
			start := time.Now()
			err := passes[i]()
			sec := time.Since(start).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			if secs[i] == 0 || sec < secs[i] {
				secs[i] = sec
			}
		}
	}
	return secs
}

// allocsPerPass is the mallocs one call of pass makes, averaged over a few
// calls after a warm-up one.
func allocsPerPass(t *testing.T, pass func() error) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if err := pass(); err != nil {
			t.Fatal(err)
		}
	})
}
