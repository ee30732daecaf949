package simalgo

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"hybsync/internal/tilesim"
)

// construction is one registered way of executing operations in mutual
// exclusion. The table below is the only list of them: a Cell names an
// entry, and tilebench, BenchmarkSimFigure and the conservation tests
// all range over it.
type construction struct {
	name string
	// only is the one object a construction implements itself (LCRQ is
	// a queue); "" means it runs any registered object.
	only string
	// combines marks the constructions that read Cell.MaxOps.
	combines bool
	// servers is the number of dedicated server cores. Servers occupy
	// the low cores and application threads start after them (§5.2).
	servers int
	// build wires the executor over obj (nil when only is set), spawning
	// its servers, if any, before any application thread exists.
	build func(e *tilesim.Engine, obj Object, c Cell) Executor
}

var constructions = []construction{
	{name: "mp-server", servers: 1, build: func(e *tilesim.Engine, obj Object, _ Cell) Executor { return NewMPServer(e, 0, obj) }},
	{name: "HybComb", combines: true, build: hybComb(false, false)},
	{name: "shm-server", servers: 1, build: func(e *tilesim.Engine, obj Object, c Cell) Executor { return NewSHMServer(e, 0, obj, c.Threads) }},
	{name: "CC-Synch", combines: true, build: func(e *tilesim.Engine, obj Object, c Cell) Executor { return NewCCSynch(e, obj, c.MaxOps) }},
	{name: "mcs-lock", build: func(e *tilesim.Engine, obj Object, _ Cell) Executor { return NewMCSLockExec(e, obj) }},
	{name: "LCRQ", only: "queue", build: func(e *tilesim.Engine, _ Object, _ Cell) Executor { return NewLCRQ(e, 1024) }},
	{name: "Treiber", only: "stack", build: func(e *tilesim.Engine, _ Object, _ Cell) Executor { return NewTreiberStack(e) }},
	{name: "mp-server-2", only: "queue", servers: 2, build: func(e *tilesim.Engine, _ Object, _ Cell) Executor { return NewTwoLockQueueMPServer(e) }},
	// The §4.2 ablations of Algorithm 1: SWAP instead of CAS to register
	// as combiner, and no eager drain (lines 25-28).
	{name: "HybComb-SWAP", combines: true, build: hybComb(true, false)},
	{name: "HybComb-NoDrain", combines: true, build: hybComb(false, true)},
}

func hybComb(swap, noDrain bool) func(*tilesim.Engine, Object, Cell) Executor {
	return func(e *tilesim.Engine, obj Object, c Cell) Executor {
		h := NewHybComb(e, obj, c.MaxOps)
		h.SwapRegistration, h.NoEagerDrain = swap, noDrain
		return h
	}
}

// object is one registered evaluation object: the sequential structure
// and the operation stream the application threads drive it with.
type object struct {
	name string
	make func(e *tilesim.Engine) Object
	// op is thread's i-th operation in cell c.
	op func(c Cell, thread int, i uint64) (op, arg uint64)
}

var objects = []object{
	{"counter", func(e *tilesim.Engine) Object { return NewCounter(e) },
		func(Cell, int, uint64) (uint64, uint64) { return OpInc, 0 }},
	// Figure 4c: every operation increments Cell.CSLen array cells.
	{"array", func(e *tilesim.Engine) Object { return NewArrayCounter(e, 64) },
		func(c Cell, _ int, _ uint64) (uint64, uint64) { return OpIncN, c.CSLen }},
	// Balanced load (§5.4): each thread alternates insert and remove.
	// Inserted values carry (thread, sequence) for the order checks.
	{"queue", func(e *tilesim.Engine) Object { return NewSeqQueue(e) }, alternate(OpEnq, OpDeq)},
	{"stack", func(e *tilesim.Engine) Object { return NewSeqStack(e) }, alternate(OpPush, OpPop)},
}

func alternate(insert, remove uint64) func(Cell, int, uint64) (uint64, uint64) {
	return func(_ Cell, thread int, i uint64) (uint64, uint64) {
		if i%2 == 0 {
			return insert, EncodeVal(thread, i/2)
		}
		return remove, 0
	}
}

// profiles are the simulated chips a Cell can name; "" is the paper's
// TILE-Gx.
var profiles = map[string]func() tilesim.Profile{
	"tilegx": tilesim.ProfileTileGx,
	"x86":    tilesim.ProfileX86Like,
}

// Constructions lists the registered constructions that run the named
// object, in registration order; "" lists them all.
func Constructions(object string) []string {
	var names []string
	for _, k := range constructions {
		if object == "" || k.only == "" || k.only == object {
			names = append(names, k.name)
		}
	}
	return names
}

// Objects lists the registered evaluation objects.
func Objects() []string {
	names := make([]string, len(objects))
	for i, o := range objects {
		names[i] = o.name
	}
	return names
}

// plan is a Cell in canonical form with its names looked up.
type plan struct {
	Cell
	k    construction
	o    object
	prof tilesim.Profile
}

// resolve validates c and looks its names up. The plan's Cell is c with
// the defaults filled in and MaxOps cleared where the construction does
// not combine, so that cells which simulate the same thing compare equal.
func resolve(c Cell) (plan, error) {
	fail := func(format string, args ...any) (plan, error) {
		return plan{}, fmt.Errorf("simalgo: "+format, args...)
	}
	if c.Profile == "" {
		c.Profile = "tilegx"
	}
	if c.ProcsPerCore == 0 {
		c.ProcsPerCore = 1
	}
	ki := slices.IndexFunc(constructions, func(k construction) bool { return k.name == c.Algo })
	if ki < 0 {
		return fail("unknown construction %q (have %s)", c.Algo, strings.Join(Constructions(""), ", "))
	}
	oi := slices.IndexFunc(objects, func(o object) bool { return o.name == c.Object })
	if oi < 0 {
		return fail("unknown object %q (have %s)", c.Object, strings.Join(Objects(), ", "))
	}
	mkProf, ok := profiles[c.Profile]
	if !ok {
		return fail("unknown profile %q (have %s)", c.Profile, strings.Join(slices.Sorted(maps.Keys(profiles)), ", "))
	}
	p := plan{Cell: c, k: constructions[ki], o: objects[oi], prof: mkProf()}
	switch {
	case p.k.only != "" && p.k.only != p.o.name:
		return fail("%s is a %s, not a %s", p.k.name, p.k.only, p.o.name)
	case p.k.combines && c.MaxOps < 1:
		return fail("%s needs MaxOps >= 1, got %d", p.k.name, c.MaxOps)
	case c.ProcsPerCore < 1 || c.ProcsPerCore > p.prof.QueuesPer:
		return fail("%d threads per core: the chip multiplexes %d hardware queues", c.ProcsPerCore, p.prof.QueuesPer)
	case c.Threads < 1 || p.k.servers+(c.Threads+c.ProcsPerCore-1)/c.ProcsPerCore > p.prof.NumCores():
		return fail("%d threads beside %d server cores do not fit the %d cores of %s",
			c.Threads, p.k.servers, p.prof.NumCores(), c.Profile)
	}
	if !p.k.combines {
		p.MaxOps = 0
	}
	return p, nil
}

// wire builds the plan's object and executor on the fresh engine e and
// returns them with the dedicated servicing Procs — whatever the build
// spawned. obj is nil for a construction that is its own object.
func (p plan) wire(e *tilesim.Engine) (exec Executor, service []*tilesim.Proc, obj Object) {
	if p.k.only == "" {
		obj = p.o.make(e)
	}
	exec = p.k.build(e, obj, p.Cell)
	return exec, e.Procs(), obj
}
