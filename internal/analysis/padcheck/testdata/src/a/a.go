// Package a exercises padcheck: marked structs are checked under the
// size model of the target the package was type-checked for (antest
// does so for amd64 and for 386, where go/types has folded the pad
// expressions per target), and pad idioms without a marker are
// reported.
package a

import (
	"sync/atomic"
	"unsafe"

	"pad"
)

// cellHot is the hot interior of a padded element: 32 bytes on both
// targets, with its 64-bit atomic leading so it stays 8-aligned.
type cellHot struct {
	seq atomic.Uint64
	val [3]uint64
}

// cell is the idiomatic padded element: clean on both targets.
//
//hyblint:padded
type cell struct {
	hot cellHot
	_   [pad.CacheLine - unsafe.Sizeof(cellHot{})%pad.CacheLine]byte
}

// unmarked uses the tail-pad idiom without opting into verification.
type unmarked struct { // want `no //hyblint:padded marker`
	hot cellHot
	_   [pad.CacheLine - unsafe.Sizeof(cellHot{})%pad.CacheLine]byte
}

// sepUnmarked uses pad.Line without opting into verification.
type sepUnmarked struct { // want `no //hyblint:padsep marker`
	n uint64
	_ pad.Line
	m uint64
}

// handPad hand-counted its pad for 64-bit pointers: 8+56 = 64 on
// amd64, but 4+56 = 60 on 386 — the stale-pad bug padcheck exists for.
//
//hyblint:padded
type handPad struct { // want `60 bytes on 386`
	p uintptr
	_ [56]byte
}

// header is the idiomatic padsep header: a full pad.Line between the
// hot fields, no whole-line size requirement.
//
//hyblint:padsep
type header struct {
	head atomic.Uint64
	_    pad.Line
	tail atomic.Uint64
}

// weak pads, but not enough: 8 bytes of separation leaves both fields
// on the first cache line of the struct on every target.
//
//hyblint:padsep
type weak struct { // want `share a cache line on amd64` `share a cache line on 386`
	a atomic.Uint32
	_ [8]byte
	b atomic.Uint32
}

var one uintptr

// padArr pads out the remainder of a line after one uintptr; its
// length is folded per target (56 on amd64, 60 on 386).
type padArr [pad.CacheLine - unsafe.Sizeof(one)]byte

// namedPadHdr is clean only because padArr's length is the target's;
// with amd64's 56 the fields would share a line on 386.
//
//hyblint:padsep
type namedPadHdr struct {
	x uintptr
	_ padArr
	y uint64
}

type offTarget struct{ a, b uint64 }

// offpad computes its pad with unsafe.Offsetof — from the wrong field,
// so it is 16+56 bytes everywhere. The compiler's size model folds
// Offsetof like any other constant, so this is checked, not refused.
//
//hyblint:padded
type offpad struct { // want `offpad is 72 bytes on amd64` `offpad is 72 bytes on 386`
	t offTarget
	_ [pad.CacheLine - unsafe.Offsetof(offTarget{}.b)%pad.CacheLine]byte
}

// plain uses no pad idiom: padcheck ignores it entirely.
type plain struct{ a, b uint64 }
