package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory builds one executor instance for a registered algorithm
// around the batch-aware Object contract. The Options it receives are
// already filled with defaults; a bare function arrives wrapped in
// Func, so a factory never distinguishes the two.
type Factory func(Object, Options) (Executor, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds an algorithm under name. It fails with
// ErrDuplicateAlgorithm if the name is taken. Construction packages
// call it from init; applications may register their own executors and
// construct them (and the repository's objects) by name.
func Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("core: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("core: %q: %w", name, ErrDuplicateAlgorithm)
	}
	registry[name] = f
	return nil
}

// MustRegister is Register, panicking on failure; for init-time use.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// NewObject constructs the named algorithm around the batch-aware
// object: every drained run, combining round or lock-held batch the
// construction forms reaches obj as one DispatchBatch call. A bare
// func(op, arg uint64) uint64 converts with Func, for free.
func NewObject(name string, obj Object, opts ...Option) (Executor, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: %q (have: %s): %w",
			name, strings.Join(Algorithms(), ", "), ErrUnknownAlgorithm)
	}
	o, err := BuildOptions(opts...)
	if err != nil {
		return nil, err
	}
	return f(obj, o)
}

// MustNewObject is NewObject, panicking on failure.
func MustNewObject(name string, obj Object, opts ...Option) Executor {
	e, err := NewObject(name, obj, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Algorithms returns the sorted names of all registered algorithms.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The package's own delegation constructions self-register here, the
// lock executors in lockexec.go, shmsync's from its own init.
func init() {
	MustRegister("mpserver", func(obj Object, o Options) (Executor, error) { return NewMPServer(obj, o), nil })
	MustRegister("hybcomb", func(obj Object, o Options) (Executor, error) { return NewHybComb(obj, o), nil })
	MustRegister("hybrid", func(obj Object, o Options) (Executor, error) { return NewHybrid(obj, o), nil })
}
