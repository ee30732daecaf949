// Package pad centralizes cache-line padding for the hot-path data
// structures (mpq rings, HybComb nodes, CC-Synch cells, SHM-server
// slots, the MCS lock's queue nodes). Two idioms replace the hand-counted byte arrays
// the seed used:
//
//   - Between two fields that must not false-share, insert a full
//     `_ pad.Line`. A whole line of separation is correct regardless
//     of the neighbouring field sizes: the second field starts at
//     least CacheLine bytes after the first ends, so they can never
//     occupy the same line.
//
//   - To round a struct (typically an array element) up to a whole
//     number of cache lines, group the live fields in an embedded
//     "hot" struct and size the tail pad from it with a constant
//     expression:
//
//     type cell struct {
//     cellHot
//     _ [pad.CacheLine - unsafe.Sizeof(cellHot{})%pad.CacheLine]byte
//     }
//
//     unsafe.Sizeof of a composite literal is a compile-time constant,
//     so the pad tracks the hot fields automatically; if the hot part
//     ever grows past a line the expression shrinks the pad instead of
//     silently overlapping. (A hot part that is already an exact
//     multiple of CacheLine makes the pad a full line — one line of
//     waste, never an under-pad.)
//
// Each package that pads asserts its layout in a test with
// unsafe.Offsetof/unsafe.Sizeof and the SameLine/Padded helpers below,
// so the layouts are machine-verified rather than hand-counted. Those
// constants fold for the target the test is built for, so CI runs the
// layout tests on amd64 and on 386: a pad that is right for 64-bit
// pointers and wrong for 32-bit ones fails there. A whole-line struct
// is also line-placed on 64-bit targets, where the tests assert it; on
// 386 a malloc header shifts it, and placement is not promised.
package pad

// CacheLine is the assumed false-sharing granularity in bytes. 64 is
// correct for x86-64 and the TILE-Gx the paper measures on; on arm64
// hosts with 128-byte lines the padding is merely half as strong, never
// wrong.
const CacheLine = 64

// Line is one full cache line of padding; see the package comment for
// the separation idiom.
type Line [CacheLine]byte

// SameLine reports whether byte offsets a and b (within one allocation)
// fall on the same cache line. Layout tests combine it with
// unsafe.Offsetof to prove two hot fields cannot false-share.
func SameLine(a, b uintptr) bool { return a/CacheLine == b/CacheLine }

// Padded reports whether size is a whole number of cache lines — the
// property array-element types must have so consecutive elements never
// share a line. Layout tests combine it with unsafe.Sizeof.
func Padded(size uintptr) bool { return size > 0 && size%CacheLine == 0 }
