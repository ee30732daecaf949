package conc

import (
	"errors"
	"testing"

	"hybsync/internal/core"
)

// Every executor-backed object reports a poisoned executor through
// Err(): on one, Dequeue/Pop return the poisoned zero — which a stored
// 0 also is — so Err is the only way to ask. Each object is poisoned
// the way it would be in the field, by an operation that panics inside
// its critical section.
func TestObjectsReportPoison(t *testing.T) {
	type object interface {
		Err() error
		Close() error
	}
	const badOp = 99
	cases := []struct {
		name string
		// build returns the object, an operation that panics in its
		// DispatchBatch, and a read that must then yield the poisoned zero.
		build func(f ExecutorFactory) (obj object, poison func(), read func() uint64, err error)
	}{
		{"Counter", func(f ExecutorFactory) (object, func(), func() uint64, error) {
			c, err := NewCounter(f)
			if err != nil {
				return nil, nil, nil, err
			}
			h, err := c.NewHandle()
			// The counter accepts every opcode: fault it out-of-band.
			return c, func() { c.Poison("counter invariant violated") }, h.Inc, err
		}},
		{"MSQueue1", func(f ExecutorFactory) (object, func(), func() uint64, error) {
			q, err := NewMSQueue1(f)
			if err != nil {
				return nil, nil, nil, err
			}
			h, err := q.NewHandle()
			return q, func() { h.enq.Apply(badOp, 0) }, h.Dequeue, err
		}},
		{"MSQueue2/enqueue-side", func(f ExecutorFactory) (object, func(), func() uint64, error) {
			q, err := NewMSQueue2(f)
			if err != nil {
				return nil, nil, nil, err
			}
			h, err := q.NewHandle()
			q.tail = nil // the next enqueue dereferences it
			return q, func() { h.Enqueue(1) }, func() uint64 { h.Enqueue(2); return 0 }, err
		}},
		{"MSQueue2/dequeue-side", func(f ExecutorFactory) (object, func(), func() uint64, error) {
			q, err := NewMSQueue2(f)
			if err != nil {
				return nil, nil, nil, err
			}
			h, err := q.NewHandle()
			q.head = nil // the next dequeue dereferences it
			return q, func() { h.Dequeue() }, h.Dequeue, err
		}},
		{"Stack", func(f ExecutorFactory) (object, func(), func() uint64, error) {
			s, err := NewStack(f)
			if err != nil {
				return nil, nil, nil, err
			}
			h, err := s.NewHandle()
			return s, func() { h.h.Apply(badOp, 0) }, h.Pop, err
		}},
	}
	for name, f := range factories() {
		for _, tc := range cases {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				obj, poison, read, err := tc.build(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := obj.Err(); err != nil {
					t.Fatalf("healthy object reports %v", err)
				}
				poison()
				if err := obj.Err(); !errors.Is(err, core.ErrPoisoned) {
					t.Fatalf("Err() after a panicking operation = %v, want ErrPoisoned", err)
				}
				if v := read(); v != 0 {
					t.Errorf("read on a poisoned object = %d, want the poisoned zero", v)
				}
				if err := obj.Close(); !errors.Is(err, core.ErrPoisoned) {
					t.Errorf("Close() on a poisoned object = %v, want ErrPoisoned", err)
				}
			})
		}
	}
}
