// Tests for the public hybsync surface: the algorithm registry, the
// functional options, and the uniform Executor lifecycle (error-based
// NewHandle, idempotent Close, NewHandle-after-Close) that every
// registered construction must satisfy.
package hybsync_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hybsync"
)

// requiredAlgos are the built-in constructions, sorted: the paper's
// four, its classic-lock baseline and the adaptive hybrid.
var requiredAlgos = []string{"ccsynch", "hybcomb", "hybrid", "mcs-lock", "mpserver", "shmserver"}

// testRegistered is the prefix of every name this package's tests
// register (TestRegisterDuplicateRejected).
const testRegistered = "api-test-"

// TestAlgorithmsComplete: the registry's built-ins are exactly
// requiredAlgos — a construction registered later is added here on
// purpose, and one that goes is removed on purpose.
func TestAlgorithmsComplete(t *testing.T) {
	var builtins []string
	for _, name := range hybsync.Algorithms() {
		if !strings.HasPrefix(name, testRegistered) {
			builtins = append(builtins, name)
		}
	}
	if !slices.Equal(builtins, requiredAlgos) {
		t.Errorf("built-in algorithms are %v, want %v", builtins, requiredAlgos)
	}
}

// TestRegistryRoundTrip builds every registered algorithm, applies 1k
// increments from several goroutines (the race detector guards the
// mutual-exclusion claim), then checks Close idempotency and
// NewHandle-after-Close.
func TestRegistryRoundTrip(t *testing.T) {
	const goroutines, per = 4, 250
	for _, name := range hybsync.Algorithms() {
		t.Run(name, func(t *testing.T) {
			var state uint64
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 {
				v := state
				state = v + 1
				return v
			}), hybsync.WithMaxThreads(goroutines))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				h, err := ex.NewHandle()
				if err != nil {
					t.Fatalf("NewHandle %d: %v", g, err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						h.Apply(0, 0)
					}
				}()
			}
			wg.Wait()
			if state != goroutines*per {
				t.Fatalf("state = %d, want %d", state, goroutines*per)
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := ex.NewHandle(); !errors.Is(err, hybsync.ErrClosed) {
				t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestTooManyHandles is the lifecycle table every registered algorithm
// shares through core.Shell.admit: WithMaxThreads bounds the handles of
// every construction (the lock executors and CC-Synch included — they
// used to hand out handles until Close), a closed executor refuses with
// ErrClosed and a poisoned one with its *PoisonError, Close is
// idempotent, and each refusal names the algorithm.
func TestTooManyHandles(t *testing.T) {
	for _, name := range hybsync.Algorithms() {
		t.Run(name, func(t *testing.T) {
			open := func() hybsync.Executor {
				ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 { return 0 }),
					hybsync.WithMaxThreads(2))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ex.Close() })
				return ex
			}

			// The poisoned refusal first: its *PoisonError says what the
			// executor calls itself — name, unless an application
			// registered an alias (api-test-custom* builds a hybcomb).
			ex := open()
			ex.(hybsync.Poisonable).Poison("lifecycle test")
			_, err := ex.NewHandle()
			var pe *hybsync.PoisonError
			if !errors.As(err, &pe) {
				t.Fatalf("NewHandle after Poison = %v, want the *PoisonError", err)
			}
			if slices.Contains(requiredAlgos, name) && pe.Algo != name {
				t.Fatalf("%s calls itself %q", name, pe.Algo)
			}
			refused := func(when string, err, want error) {
				t.Helper()
				if !errors.Is(err, want) {
					t.Fatalf("NewHandle %s = %v, want %v", when, err, want)
				}
				if !strings.HasPrefix(err.Error(), pe.Algo+": ") {
					t.Fatalf("NewHandle %s = %q, want it to name the algorithm %q", when, err, pe.Algo)
				}
			}
			refused("after Poison", err, hybsync.ErrPoisoned)

			ex = open()
			for i := 0; i < 2; i++ {
				if _, err := ex.NewHandle(); err != nil {
					t.Fatalf("NewHandle %d: %v", i, err)
				}
			}
			_, err = ex.NewHandle()
			refused("beyond MaxThreads", err, hybsync.ErrTooManyHandles)
			for i := 0; i < 2; i++ {
				if err := ex.Close(); err != nil {
					t.Fatalf("Close %d: %v", i, err)
				}
			}
			_, err = ex.NewHandle()
			refused("after Close", err, hybsync.ErrClosed)
		})
	}
}

func TestMustHandlePanicsOnExhaustion(t *testing.T) {
	ex := hybsync.MustNewObject("hybcomb", hybsync.Func(func(op, arg uint64) uint64 { return 0 }),
		hybsync.WithMaxThreads(1))
	defer ex.Close()
	hybsync.MustHandle(ex)
	defer func() {
		if recover() == nil {
			t.Fatal("MustHandle beyond MaxThreads did not panic")
		}
	}()
	hybsync.MustHandle(ex)
}

// customRuns numbers TestRegisterDuplicateRejected's runs: the registry
// is process-wide, so each run (go test -count) registers its own name.
var customRuns int

func TestRegisterDuplicateRejected(t *testing.T) {
	// The factory forwards every option it receives: TestHandleContract
	// covers the registration whenever this test ran first, with the
	// QueueCap it asks for.
	factory := func(obj hybsync.Object, o hybsync.Options) (hybsync.Executor, error) {
		return hybsync.NewObject("hybcomb", obj, hybsync.WithMaxThreads(o.MaxThreads),
			hybsync.WithQueueCap(o.QueueCap), hybsync.WithMaxOps(int(o.MaxOps)),
			hybsync.WithStallTimeout(o.StallTimeout), hybsync.WithTelemetry(o.Telemetry))
	}
	name := testRegistered + "custom"
	if customRuns++; customRuns > 1 {
		name = fmt.Sprintf("%s-%d", name, customRuns)
	}
	if err := hybsync.Register(name, factory); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := hybsync.Register(name, factory); !errors.Is(err, hybsync.ErrDuplicateAlgorithm) {
		t.Fatalf("duplicate Register = %v, want ErrDuplicateAlgorithm", err)
	}
	// The custom registration is reachable through New like any built-in.
	ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 { return arg }))
	if err != nil {
		t.Fatalf("New(custom): %v", err)
	}
	defer ex.Close()
	if got := hybsync.MustHandle(ex).Apply(0, 7); got != 7 {
		t.Fatalf("Apply through custom algorithm = %d, want 7", got)
	}
}

// TestBadOptionsRejectedAtNew: explicitly setting a sizing option to a
// non-positive value, or the stall timeout to a negative one, must fail
// New with a wrapped ErrBadOption instead of silently substituting a
// default (or misbehaving later); unset options still default.
func TestBadOptionsRejectedAtNew(t *testing.T) {
	dispatch := func(op, arg uint64) uint64 { return 0 }
	bad := map[string]hybsync.Option{
		"WithMaxThreads(0)":     hybsync.WithMaxThreads(0),
		"WithMaxThreads(-4)":    hybsync.WithMaxThreads(-4),
		"WithMaxOps(0)":         hybsync.WithMaxOps(0),
		"WithMaxOps(-1)":        hybsync.WithMaxOps(-1),
		"WithQueueCap(0)":       hybsync.WithQueueCap(0),
		"WithQueueCap(-9)":      hybsync.WithQueueCap(-9),
		"WithStallTimeout(-5s)": hybsync.WithStallTimeout(-5 * time.Second),
	}
	for name, opt := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := hybsync.NewObject("mpserver", hybsync.Func(dispatch), opt); !errors.Is(err, hybsync.ErrBadOption) {
				t.Fatalf("New with %s = %v, want ErrBadOption", name, err)
			}
		})
	}
	// Valid values (and unset defaults) still construct.
	ex, err := hybsync.NewObject("mpserver", hybsync.Func(dispatch),
		hybsync.WithMaxThreads(2), hybsync.WithQueueCap(8))
	if err != nil {
		t.Fatalf("New with valid options: %v", err)
	}
	ex.Close()
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := hybsync.NewObject("no-such-algo", hybsync.Func(func(op, arg uint64) uint64 { return 0 })); !errors.Is(err, hybsync.ErrUnknownAlgorithm) {
		t.Fatalf("New(unknown) = %v, want ErrUnknownAlgorithm", err)
	}
}
