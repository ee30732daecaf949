package conc

import (
	"sync/atomic"

	"hybsync/internal/core"
)

// Stack is the coarse-lock stack of Figure 5b: a sequential linked-list
// stack whose push and pop run as critical sections of one executor.
type Stack struct {
	exec core.Executor
	top  *qnode
}

// stackObject is the stack's native batch object: a run of mixed
// pushes/pops walks the top pointer locally and writes it back once.
type stackObject struct{ s *Stack }

func (o stackObject) DispatchBatch(reqs []core.Req, results []uint64) {
	top := o.s.top
	for i, r := range reqs {
		switch r.Op {
		case OpPush:
			top = &qnode{value: r.Arg, next: top}
			results[i] = 0
		case OpPop:
			if top == nil {
				results[i] = EmptyVal
				continue
			}
			results[i] = top.value
			top = top.next
		default:
			panic("conc: bad stack opcode")
		}
	}
	o.s.top = top
}

// NewStack builds the stack over the given construction.
func NewStack(f ExecutorFactory) (*Stack, error) {
	s := &Stack{}
	exec, err := f(stackObject{s: s})
	if err != nil {
		return nil, err
	}
	s.exec = exec
	return s, nil
}

// NewHandle returns a per-goroutine handle.
func (s *Stack) NewHandle() (*StackHandle, error) {
	h, err := s.exec.NewHandle()
	if err != nil {
		return nil, err
	}
	return &StackHandle{h: h}, nil
}

// Close shuts down the underlying executor; idempotent.
func (s *Stack) Close() error { return s.exec.Close() }

// Err reports the underlying executor's terminal fault (a *PoisonError
// wrapping core.ErrPoisoned), or nil while it is healthy. On a poisoned
// stack Pop returns 0 — which a stored 0 also is — so a caller that must
// tell the two apart asks here.
func (s *Stack) Err() error { return s.exec.Err() }

// Stats reports the underlying executor's combining statistics when it
// is a combining construction; ok is false otherwise. Call only while
// no operations are in flight.
func (s *Stack) Stats() (rounds, combined uint64, ok bool) { return execStats(s.exec) }

// StackHandle is a goroutine's capability to use a Stack.
type StackHandle struct {
	h core.Handle
}

// Push pushes v.
func (h *StackHandle) Push(v uint64) { h.h.Apply(OpPush, v) }

// Pop removes the top value, or returns EmptyVal when empty.
func (h *StackHandle) Pop() uint64 { return h.h.Apply(OpPop, 0) }

// TreiberStack is Treiber's nonblocking stack: a CAS loop on an atomic
// top pointer. Go's garbage collector removes the ABA hazard that the
// original algorithm must handle with counted pointers.
type TreiberStack struct {
	top atomic.Pointer[qnode]
}

// NewTreiberStack creates an empty stack.
func NewTreiberStack() *TreiberStack { return &TreiberStack{} }

// Push pushes v (lock-free).
func (s *TreiberStack) Push(v uint64) {
	n := &qnode{value: v}
	for {
		top := s.top.Load()
		n.next = top
		if s.top.CompareAndSwap(top, n) {
			return
		}
	}
}

// Pop removes the top value, or returns EmptyVal when empty (lock-free).
func (s *TreiberStack) Pop() uint64 {
	for {
		top := s.top.Load()
		if top == nil {
			return EmptyVal
		}
		if s.top.CompareAndSwap(top, top.next) {
			return top.value
		}
	}
}
