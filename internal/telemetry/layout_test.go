package telemetry

import (
	"testing"
	"unsafe"

	"hybsync/internal/pad"
)

// TestLayout: a histogram's shard rows are array elements written by
// different threads, so each must be whole cache lines or neighbouring
// shards false-share.
func TestLayout(t *testing.T) {
	if s := unsafe.Sizeof(paddedRow{}); !pad.Padded(s) {
		t.Errorf("paddedRow is %d bytes, not a whole number of cache lines", s)
	}
}
