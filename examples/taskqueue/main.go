// Taskqueue: a work-distribution pipeline built on the one-lock MS-Queue
// over MP-SERVER. The paper's introduction motivates fast concurrent
// queues as the backbone of parallelization frameworks (it cites OpenMP
// tasking); this example is that use case in miniature: producers
// enqueue work items, workers dequeue and execute them, and the queue's
// critical sections are all executed by the queue's server loop.
//
//	go run ./examples/taskqueue
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"hybsync"
	"hybsync/object"
)

func main() {
	const (
		producers = 4
		workers   = 4
		tasks     = 50_000
	)

	queue, err := object.NewMSQueue1("mpserver",
		hybsync.WithMaxThreads(producers+workers+1))
	if err != nil {
		log.Fatalf("NewMSQueue1: %v", err)
	}
	defer queue.Close()

	var produced, done atomic.Uint64
	var sum atomic.Uint64
	var wg sync.WaitGroup

	// Producers enqueue task ids.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h, err := queue.NewHandle()
			if err != nil {
				panic(err)
			}
			for i := p; i < tasks; i += producers {
				h.Enqueue(uint64(i))
				produced.Add(1)
			}
		}(p)
	}

	// Workers drain until all tasks are accounted for.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := queue.NewHandle()
			if err != nil {
				panic(err)
			}
			for done.Load() < tasks {
				v := h.Dequeue()
				if v == object.EmptyVal {
					continue // queue momentarily empty; retry
				}
				// "Execute" the task: fold its id into a checksum.
				sum.Add(v*2 + 1)
				done.Add(1)
			}
		}()
	}
	wg.Wait()

	var want uint64
	for i := uint64(0); i < tasks; i++ {
		want += i*2 + 1
	}
	fmt.Printf("produced %d tasks, executed %d\n", produced.Load(), done.Load())
	fmt.Printf("checksum %d (want %d)\n", sum.Load(), want)
	if sum.Load() != want {
		fmt.Println("MISMATCH — a task was lost or duplicated!")
	} else {
		fmt.Println("every task executed exactly once")
	}
}
