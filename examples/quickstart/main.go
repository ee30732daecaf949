// Quickstart: build a linearizable counter over HYBCOMB and MP-SERVER
// and hammer it from many goroutines — entirely through the public
// hybsync API: constructions are picked from the algorithm registry by
// name and configured with functional options.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"hybsync"
	"hybsync/object"
)

func main() {
	const goroutines, perThread = 8, 10_000

	// Every registered construction can back the counter; HYBCOMB has
	// no dedicated server (threads combine for each other) while
	// MP-SERVER is served by a pooled server loop until Close.
	for _, algo := range []string{"hybcomb", "mpserver"} {
		c, err := object.NewCounter(algo, hybsync.WithMaxThreads(goroutines))
		if err != nil {
			log.Fatalf("NewCounter(%s): %v", algo, err)
		}
		run(c, goroutines, perThread)
		fmt.Printf("%-8s counter: %d (want %d)\n", algo, c.Value(), goroutines*perThread)
		if err := c.Close(); err != nil {
			log.Fatalf("Close(%s): %v", algo, err)
		}
	}
}

func run(c *object.Counter, goroutines, perThread int) {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := c.NewHandle() // one handle per goroutine
			if err != nil {
				panic(err)
			}
			for i := 0; i < perThread; i++ {
				h.Inc()
			}
		}()
	}
	wg.Wait()
}
