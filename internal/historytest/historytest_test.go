package historytest

import "testing"

// TestCheck feeds the checker hand-made histories: each violation
// must be reported, and the same history with it repaired must pass.
func TestCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		h    history
		ok   bool
	}{
		{"overlapping increments in either order", history{incs: []op{{0, 10, 2}, {5, 15, 1}}}, true},
		{"later increment holds the smaller value", history{incs: []op{{0, 10, 2}, {11, 15, 1}}}, false},
		{"a value twice", history{incs: []op{{0, 10, 1}, {11, 15, 1}}}, false},
		{"a value missing", history{incs: []op{{0, 10, 1}, {11, 15, 3}}}, false},
		{"read counts a flushed increment", history{posted: []op{{0, 10, 0}}, reads: []op{{11, 12, 1}}}, true},
		{"read misses a flushed increment", history{posted: []op{{0, 10, 0}}, reads: []op{{11, 12, 0}}}, false},
		{"read counts an increment not yet invoked", history{posted: []op{{13, 20, 0}}, reads: []op{{11, 12, 1}}}, false},
		{"read may miss an overlapping increment", history{posted: []op{{0, 10, 0}}, reads: []op{{5, 12, 0}}}, true},
	} {
		if err := c.h.check(); (err == nil) != c.ok {
			t.Errorf("%s: check() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
