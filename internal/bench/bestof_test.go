package bench

import (
	"math"
	goruntime "runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// sample is one timed run of one pass.
type sample struct {
	pass int
	sec  float64
}

// timeRounds is the kernel gates' one timing loop. It runs every pass once
// as a warm-up, then rounds of all passes until minDur per pass has elapsed
// (at least one round), and returns every timed run in execution order. The
// order of the passes reverses every round, so drift of the machine
// (frequency scaling, co-tenants, sibling test processes) cancels instead of
// biasing one side of a ratio. between, when not nil, runs before every
// timed pass and once after the last, outside the timed interval. Allocation
// bounds are taken separately with testing.AllocsPerRun, which keeps
// stop-the-world stats reads out of the timed rounds.
func timeRounds(t *testing.T, minDur time.Duration, between func(), passes ...func() error) []sample {
	t.Helper()
	for _, pass := range passes {
		if err := pass(); err != nil {
			t.Fatal(err)
		}
	}
	var out []sample
	rounds := 0
	for deadline := time.Now().Add(minDur * time.Duration(len(passes))); rounds == 0 || time.Now().Before(deadline); rounds++ {
		for k := range passes {
			i := k
			if rounds%2 == 1 {
				i = len(passes) - 1 - k
			}
			if between != nil {
				between()
			}
			start := time.Now()
			err := passes[i]()
			sec := time.Since(start).Seconds()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sample{pass: i, sec: sec})
		}
	}
	if between != nil {
		between()
	}
	return out
}

// bestOf times passes with timeRounds and returns each pass's fastest time
// in seconds.
func bestOf(t *testing.T, minDur time.Duration, passes ...func() error) []float64 {
	t.Helper()
	secs := make([]float64, len(passes))
	for _, s := range timeRounds(t, minDur, nil, passes...) {
		if secs[s.pass] == 0 || s.sec < secs[s.pass] {
			secs[s.pass] = s.sec
		}
	}
	return secs
}

// calibrationIters sizes one calibration spin: a few milliseconds of dependent
// register arithmetic on a current core.
const calibrationIters = 1 << 21

// spin is the calibration work: a xorshift chain that touches no memory.
func spin(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// spinWall runs spin on w goroutines at once and returns the wall time.
func spinWall(w int) float64 {
	out := make([]uint64, w)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = spin(uint64(g))
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// calibratedRuns times passes with timeRounds over window, for ratios whose
// passes need cores[i] cores each. A calibration — w = max(cores) goroutines
// of register-only arithmetic — runs before every timed pass and after the
// last, each after a forced GC; its figure, w times the fastest
// one-goroutine spin over the w-goroutine wall, is the parallelism the host
// delivered at that moment. A run of pass i counts only when the
// calibrations on both sides of it reached 0.9·cores[i], so a sibling
// process holding a core cannot pass for a slow kernel. It returns the runs
// that count, in execution order, and the best calibration figure.
func calibratedRuns(t *testing.T, cores []int, window time.Duration, passes ...func() error) ([]sample, float64) {
	t.Helper()
	w := 0
	for _, c := range cores {
		w = max(w, c)
	}
	var one, wide []float64
	calibrate := func() {
		// Collect the previous pass's garbage first, so neither the
		// calibration nor the next pass shares the cores with GC work the
		// other left behind.
		goruntime.GC()
		c := spinWall(1)
		one = append(one, c)
		if w > 1 {
			c = spinWall(w)
		}
		wide = append(wide, c)
	}
	samples := timeRounds(t, window, calibrate, passes...)
	best1 := one[0]
	for _, s := range one {
		best1 = min(best1, s)
	}
	figure := func(k int) float64 { return float64(w) * best1 / wide[k] }
	var counted []sample
	bestFig := 0.0
	for k, s := range samples {
		bestFig = max(bestFig, figure(k))
		if min(figure(k), figure(k+1)) >= 0.9*float64(cores[s.pass]) {
			counted = append(counted, s)
		}
	}
	return counted, bestFig
}

// calibratedBestOf is bestOf over the runs calibratedRuns counts. While some
// pass has no counted run the window doubles, up to 8× minDur, and the runs
// every window counted are pooled; after that the test fails, naming the
// best calibration figure. It never skips.
func calibratedBestOf(t *testing.T, cores []int, minDur time.Duration, passes ...func() error) []float64 {
	t.Helper()
	secs := make([]float64, len(passes))
	bestFig := 0.0
	for window := minDur; ; window *= 2 {
		runs, fig := calibratedRuns(t, cores, window, passes...)
		bestFig = max(bestFig, fig)
		for _, s := range runs {
			if secs[s.pass] == 0 || s.sec < secs[s.pass] {
				secs[s.pass] = s.sec
			}
		}
		var missing []int
		for i, s := range secs {
			if s == 0 {
				missing = append(missing, cores[i])
			}
		}
		if len(missing) == 0 {
			return secs
		}
		if window >= 8*minDur {
			t.Fatalf("the host never delivered the cores around every pass in windows up to %v: passes needing %v cores have no run; best calibration %.2f",
				window, missing, bestFig)
		}
		t.Logf("passes needing %v cores have no run at >= 0.9 of their cores (best calibration %.2f); re-measuring with a %v window",
			missing, bestFig, 2*window)
	}
}

// pairedRatios times passes a and b with timeRounds over window and
// returns, for every round, the ratio b/a of the round's two runs. The two
// runs of a round are adjacent in time and their order alternates between
// rounds, so drift of the machine cancels within each ratio.
func pairedRatios(t *testing.T, window time.Duration, a, b func() error) []float64 {
	t.Helper()
	samples := timeRounds(t, window, nil, a, b)
	ratios := make([]float64, 0, len(samples)/2)
	for k := 0; k+1 < len(samples); k += 2 {
		x, y := samples[k], samples[k+1]
		if x.pass == 1 {
			x, y = y, x
		}
		ratios = append(ratios, y.sec/x.sec)
	}
	return ratios
}

// medianCI sorts xs in place and returns its median and the order
// statistics at ranks n/2 ∓ 1.29·√n, a 99% confidence interval for the
// median (the normal approximation to the binomial).
func medianCI(xs []float64) (lo, med, hi float64) {
	sort.Float64s(xs)
	n := len(xs)
	med = xs[n/2]
	if n%2 == 0 {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	d := 1.29 * math.Sqrt(float64(n))
	return xs[max(0, int(float64(n)/2-d))], med, xs[min(n-1, int(math.Ceil(float64(n)/2+d)))]
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
