package core_test

import (
	"testing"
	"time"

	"hybsync/internal/core"
)

// TestEveryOpcodeIsAnOperation: every uint64 opcode belongs to the
// object, the largest and zero included, on every registered
// construction and through every way in — Apply, Submit and Wait, Post
// and Flush, ApplyBatch. Each reaches the object with its opcode and
// argument and returns the object's result. A construction that takes
// an opcode for itself hangs or answers without calling the object, so
// the body runs under a bound of a few seconds.
func TestEveryOpcodeIsAnOperation(t *testing.T) {
	const bound = 5 * time.Second
	for _, algo := range core.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			var calls []core.Req // every request the object executed
			ex := core.MustNewObject(algo, core.Func(func(op, arg uint64) uint64 {
				calls = append(calls, core.Req{Op: op, Arg: arg})
				return op ^ arg ^ 1
			}))
			h := core.MustHandle(ex)
			within(t, bound, func() {
				called := func(path string, op, arg uint64) {
					t.Helper()
					if n := len(calls); n == 0 || calls[n-1] != (core.Req{Op: op, Arg: arg}) {
						t.Errorf("%s(%#x, %d): the object's last call is %v, want that operation", path, op, arg, calls)
					}
				}
				for _, op := range []uint64{^uint64(0), 0} {
					if v := h.Apply(op, 5); v != op^5^1 {
						t.Errorf("Apply(%#x, 5) = %#x, want %#x", op, v, op^5^1)
					}
					called("Apply", op, 5)
					tk, err := h.Submit(op, 6)
					if err != nil {
						t.Error(err)
						return
					}
					if v := h.Wait(tk); v != op^6^1 {
						t.Errorf("Submit(%#x, 6) then Wait = %#x, want %#x", op, v, op^6^1)
					}
					called("Submit", op, 6)
					if err := h.Post(op, 7); err != nil {
						t.Error(err)
						return
					}
					h.Flush()
					called("Post", op, 7)
					reqs, rets := []core.Req{{Op: op, Arg: 8}, {Op: op, Arg: 9}}, make([]uint64, 2)
					h.ApplyBatch(reqs, rets)
					for i, r := range reqs {
						if rets[i] != r.Op^r.Arg^1 {
							t.Errorf("ApplyBatch: results[%d] = %#x, want %#x", i, rets[i], r.Op^r.Arg^1)
						}
					}
					called("ApplyBatch", op, 9)
				}
				if err := ex.Close(); err != nil {
					t.Error(err)
				}
			})
		})
	}
}
