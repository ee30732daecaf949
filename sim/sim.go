// Package sim is the public face of the deterministic TILE-Gx-like
// simulator: the cycle-level chip model (mesh NoC, directory coherence,
// memory-controller atomics, UDN message network) and the paper's
// constructions plus evaluation objects running on it, by name. It
// re-exports the internal simulator packages so figure drivers and
// benchmarks can be written without reaching into hybsync/internal.
//
//	lab := &sim.Lab{Horizon: 100_000, Runs: 1}
//	res, err := lab.Run(sim.Cell{Algo: "HybComb", Object: "counter", Threads: 35, MaxOps: 200})
//	fmt.Println(res.Mops())
package sim

import (
	"hybsync/internal/simalgo"
	"hybsync/internal/tilesim"
)

// Chip model: a simulated machine is an Engine built from a Profile;
// each simulated core runs one Proc.
type (
	Engine  = tilesim.Engine
	Profile = tilesim.Profile
	Proc    = tilesim.Proc
)

// NewEngine builds a simulated chip from a hardware profile.
func NewEngine(p Profile) *Engine { return tilesim.NewEngine(p) }

// ProfileTileGx models the paper's TILE-Gx36: 36 cores, 6x6 mesh,
// hardware UDN messaging.
func ProfileTileGx() Profile { return tilesim.ProfileTileGx() }

// Simulated algorithm layer: a Cell names a construction, an object and
// a thread count; a Lab runs cells and remembers their Results; a Figure
// is a table of (cell, metric) pairs.
type (
	Cell   = simalgo.Cell
	Result = simalgo.Result
	Lab    = simalgo.Lab
	Figure = simalgo.Figure
	Column = simalgo.Column
)

// Constructions lists the registered constructions that run the named
// object ("" lists them all); Objects lists the registered objects.
func Constructions(object string) []string { return simalgo.Constructions(object) }
func Objects() []string                    { return simalgo.Objects() }

// Figures lists the paper's figures as tables over l's cells; maxOps is
// the MAX_OPS of the combining constructions where a figure does not
// set its own.
func Figures(l *Lab, maxOps int) []Figure { return simalgo.Figures(l, maxOps) }
