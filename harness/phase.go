package harness

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phases is a parsed phase-shifting load shape: all threads burst
// together for Duty of every Period, then idle for the rest. It is the
// workload the adaptive hybrid construction exists for — contention
// arrives in waves, so a static lock is right half the time and a
// static delegation scheme the other half — and it is shared plumbing
// like Dist, behind the phase:... values of hybsweep's dist axis.
type Phases struct {
	label  string
	period time.Duration
	duty   float64
}

// ParsePhases parses "phase:period:duty" — e.g. "phase:5ms:0.5" for
// 2.5ms bursts every 5ms. period is any time.ParseDuration string
// (positive); duty is the burst fraction, in (0, 1).
func ParsePhases(s string) (Phases, error) {
	rest, ok := strings.CutPrefix(s, "phase:")
	if !ok {
		return Phases{}, fmt.Errorf("unknown phase spec %q (want phase:period:duty)", s)
	}
	periodStr, dutyStr, ok := strings.Cut(rest, ":")
	if !ok {
		return Phases{}, fmt.Errorf("phase spec %q: want phase:period:duty", s)
	}
	period, err := time.ParseDuration(periodStr)
	if err != nil || period <= 0 {
		return Phases{}, fmt.Errorf("phase spec %q: bad period %q", s, periodStr)
	}
	duty, err := strconv.ParseFloat(dutyStr, 64)
	if err != nil || duty <= 0 || duty >= 1 {
		return Phases{}, fmt.Errorf("phase spec %q: duty %q must be in (0, 1)", s, dutyStr)
	}
	return Phases{label: s, period: period, duty: duty}, nil
}

// IsPhaseSpec reports whether s names a phase-shifting workload (the
// "phase:" prefix), so dist-axis consumers can route it here instead
// of ParseDist.
func IsPhaseSpec(s string) bool { return strings.HasPrefix(s, "phase:") }

// Label returns the spec as given on the command line, for record
// fields.
func (p Phases) Label() string { return p.label }

// Period returns the phase period.
func (p Phases) Period() time.Duration { return p.period }

// Duty returns the burst fraction of each period.
func (p Phases) Duty() float64 { return p.duty }

// phaseCheckEvery bounds how many burst operations run between clock
// reads, so the per-op cost of phase tracking amortizes to noise while
// the phase boundary is still hit well within a millisecond-scale
// period.
const phaseCheckEvery = 32

// RunPhased is RunNativeDrain under the phase-shifting load shape: all
// threads share one phase clock (started at the barrier), burst for
// duty×period, then sleep out the idle remainder in bounded naps so
// the stop flag is never missed. Ops counts only burst operations —
// the idle phase performs none by construction — while Duration is the
// full wall-clock window, so Mops reports the duty-cycled throughput
// the workload actually achieved.
func (p Phases) RunPhased(threads int, dur time.Duration, maxLocalWork uint64, setup func(thread int) (body func(i uint64), drain func())) NativeResult {
	burst := time.Duration(float64(p.period) * p.duty)
	var stop atomic.Bool
	per := make([]uint64, threads)
	var wg sync.WaitGroup
	var ready, start sync.WaitGroup
	ready.Add(threads)
	start.Add(1)
	var t0 time.Time // written before start.Done, read only after start.Wait
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			body, drain := setup(t)
			rng := NewXorShift(uint64(t + 1))
			ready.Done()
			start.Wait()
			var n uint64
			// One op minimum, like RunNativeDrain, so fairness stays
			// well-defined on barely-scheduled threads.
			body(n)
			n++
		loop:
			for !stop.Load() {
				into := time.Since(t0) % p.period
				if into >= burst {
					// Idle phase: nap toward the next period boundary in
					// bounded slices so stop is observed promptly.
					nap := p.period - into
					if nap > 200*time.Microsecond {
						nap = 200 * time.Microsecond
					}
					time.Sleep(nap)
					continue
				}
				// Burst phase: run ops, re-checking the clock every
				// phaseCheckEvery iterations.
				for i := 0; i < phaseCheckEvery; i++ {
					body(n)
					n++
					if stop.Load() {
						break loop
					}
					if maxLocalWork > 0 {
						LocalWork(rng.Next() % (maxLocalWork + 1))
					}
				}
			}
			if drain != nil {
				drain()
			}
			per[t] = n
		}(t)
	}
	ready.Wait()
	t0 = time.Now()
	start.Done()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	var total uint64
	for _, n := range per {
		total += n
	}
	return NativeResult{Ops: total, Duration: elapsed, PerThread: per}
}
