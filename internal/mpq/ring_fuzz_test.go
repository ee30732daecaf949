package mpq

import "testing"

// FuzzRing drives one ring — Mpsc or Spsc, capacity 2 to 4, so a short
// script wraps it many times — through random sends and receives from a
// single goroutine and checks every step against a FIFO model: what
// comes out is what went in, in order, whole, and exactly once; a
// non-blocking receive finds a message exactly when the model holds one;
// Empty agrees with the model after every step.
//
// The first byte picks the ring and its capacity; each later byte is one
// step (low two bits: Send, TryRecv, RecvBatch, TryRecvBatch; the rest:
// the batch buffer's length). A Send into a full ring, or a RecvBatch on
// an empty one with room in its buffer, would block a lone goroutine for
// good, so those steps are skipped.
func FuzzRing(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 1, 0, 0, 0x0b, 0, 0x07, 0x03, 1},
		{1, 0, 0, 0, 0x0e, 0, 0, 0x12, 0x0b, 1, 0x03},
		{2, 0, 0, 0, 0, 0x17, 0, 0, 0, 0x0a, 0, 0x0f, 0x13},
		{5, 0, 0, 0, 0, 0x16, 0, 0, 0, 0, 1, 1, 0, 0x0b, 0x1a},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		be := ringBackends()[int(script[0])%2]
		capacity := 2 + int(script[0])/2%3
		q := be.mk(capacity)
		var model []Msg
		sent := uint64(0)
		take := func(how string, got Msg) {
			t.Helper()
			if got != model[0] {
				t.Fatalf("%s cap %d: %s = %+v, want %+v", be.name, capacity, how, got, model[0])
			}
			model = model[1:]
		}
		for _, b := range script[1:] {
			buf := make([]Msg, int(b>>2)%6)
			switch b & 3 {
			case 0:
				if len(model) == capacity {
					continue
				}
				m := Words3(sent, ^sent, uint64(b))
				sent++
				q.Send(m)
				model = append(model, m)
			case 1:
				m, ok := q.TryRecv()
				if ok != (len(model) > 0) {
					t.Fatalf("%s cap %d: TryRecv ok = %v with %d queued", be.name, capacity, ok, len(model))
				}
				if ok {
					take("TryRecv", m)
				}
			case 2, 3:
				if b&3 == 2 && len(model) == 0 && len(buf) > 0 {
					continue
				}
				var n int
				if b&3 == 2 {
					n = q.RecvBatch(buf)
				} else {
					n = q.TryRecvBatch(buf)
				}
				if want := min(len(buf), len(model)); n != want {
					t.Fatalf("%s cap %d: batch receive into %d = %d with %d queued, want %d", be.name, capacity, len(buf), n, len(model), want)
				}
				for _, m := range buf[:n] {
					take("batch receive", m)
				}
			}
			if q.Empty() != (len(model) == 0) {
				t.Fatalf("%s cap %d: Empty() = %v with %d queued", be.name, capacity, q.Empty(), len(model))
			}
		}
	})
}
