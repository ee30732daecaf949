package core

import (
	"math"
	"runtime"
	"sync"
)

// ForceHybridMode drives a hybrid transition edge for the external
// test package (hybrid_contract_test.go cannot live in package core:
// the script it runs, internal/handletest, imports core).
func ForceHybridMode(h *Hybrid, promote bool) { forceMode(h, promote) }

// ToggleHybrid flips h's mode continuously, as toggler does, until the
// returned stop is called; stop returns the transitions made so far.
func ToggleHybrid(h *Hybrid) (stop func() (promotions, demotions uint64)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go toggler(h, done, &wg)
	return func() (promotions, demotions uint64) {
		close(done)
		wg.Wait()
		return h.Transitions()
	}
}

// FreezeHybrid disables h's controller — no run of operations is ever a
// whole evaluation window — so forced transitions own the mode. Call it
// before h hands out handles.
func FreezeHybrid(h *Hybrid) { h.window = math.MaxUint64 }

// HybridBackend is h's delegation backend, whose own latch the
// hybrid's design keeps from ever tripping.
func HybridBackend(h *Hybrid) *CCSynch { return h.inner }

// HybCombLastCombiner is the thread id on h's last registered combiner
// node: the thread that promoted itself last (-1 before anyone did).
func HybCombLastCombiner(h *HybComb) int32 { return h.lastReg.Load().id() }

// CCSynchLinks returns a wait for the next cell linked into c's chain:
// each call returns once a cell is linked behind the end the previous
// one saw (the tail when CCSynchLinks ran), and moves that end there.
// The cell a publisher fills is the tail it swapped out, whose next it
// sets last, so a returned wait means that request is on the chain.
func CCSynchLinks(c *CCSynch) (awaitLink func()) {
	last := c.tail.Load()
	return func() {
		for last.linked() == nil {
			runtime.Gosched()
		}
		last = last.linked()
	}
}

// NewTestPipe builds a handle over tr, a scripted transport, whose
// window holds depth operations; eager hands each submission over at
// once. ctr reads the handle's pipeline counters.
func NewTestPipe(tr Transport, depth int, eager bool) (h *Pipe, ctr PipelineStats) {
	var s Shell
	return s.handle(pipeSpec{Transport: tr, Depth: depth, Eager: eager}), pipelineOf{&s}
}

type pipelineOf struct{ s *Shell }

func (p pipelineOf) Pipeline() (submitStalls, maxDepth uint64) { return p.s.totals().pipeline() }

// SharesServerLoop reports whether a and b, each an MP-SERVER or an
// SHM-SERVER, are attached to the same server loop.
func SharesServerLoop(a, b Executor) bool {
	pool.Lock()
	defer pool.Unlock()
	for _, l := range pool.loops {
		var n int
		for _, m := range *l.members.Load() {
			if any(m.src) == any(a) || any(m.src) == any(b) {
				n++
			}
		}
		if n == 2 {
			return true
		}
	}
	return false
}
