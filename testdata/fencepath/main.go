// Command fencepath is the workload TestFenceBudget measures: one
// handle of one registered construction, n uncontended blocking Apply
// calls of v += arg. Built with -cover -covermode=atomic it clears the
// coverage counters after set-up and a warm-up of n calls, so the
// counters it writes to -covdir count the n measured calls alone.
package main

import (
	"flag"
	"log"
	"runtime/coverage"

	"hybsync"
)

func main() {
	algo := flag.String("algo", "ccsynch", "registered construction")
	n := flag.Int("n", 1024, "Apply calls measured")
	dir := flag.String("covdir", "", "directory the coverage meta-data and counters go to")
	flag.Parse()
	var v uint64
	ex, err := hybsync.NewObject(*algo, hybsync.Func(func(_, arg uint64) uint64 { v += arg; return v }))
	if err != nil {
		log.Fatal(err)
	}
	h := hybsync.MustHandle(ex)
	apply := func() {
		for range *n {
			h.Apply(0, 1)
		}
	}
	apply() // warm-up: first-use allocations and scratch
	if err := coverage.ClearCounters(); err != nil {
		log.Fatal(err)
	}
	apply()
	if err := coverage.WriteMetaDir(*dir); err != nil {
		log.Fatal(err)
	}
	if err := coverage.WriteCountersDir(*dir); err != nil {
		log.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		log.Fatal(err)
	}
	if v != uint64(2**n) {
		log.Fatalf("%s: v = %d after %d calls", *algo, v, 2**n)
	}
}
