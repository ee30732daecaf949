// Bank: HYBCOMB as a universal construction for an arbitrary sequential
// object — here a tiny bank whose accounts support deposits and
// transfers. The paper's point (§1) is that universal constructions let
// non-experts write highly-efficient concurrent code: the function
// below is plain sequential Go, yet every operation is
// linearizable under arbitrary concurrency.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"log"
	"sync"

	"hybsync"
)

// Opcodes of the bank object. Transfers pack (from, to, amount) into the
// 64-bit argument: 16 bits each for the account ids, 32 for the amount.
const (
	opDeposit  = 1 // arg: account<<32 | amount
	opTransfer = 2 // arg: from<<48 | to<<32 | amount
	opBalance  = 3 // arg: account
	opTotal    = 4
)

func main() {
	const accounts = 64
	balance := make([]uint64, accounts)

	bank, err := hybsync.NewObject("hybcomb", hybsync.Func(func(op, arg uint64) uint64 {
		switch op {
		case opDeposit:
			balance[arg>>32] += arg & 0xFFFFFFFF
			return 0
		case opTransfer:
			from, to, amt := arg>>48, (arg>>32)&0xFFFF, arg&0xFFFFFFFF
			if balance[from] < amt {
				return 1 // insufficient funds
			}
			balance[from] -= amt
			balance[to] += amt
			return 0
		case opBalance:
			return balance[arg]
		case opTotal:
			var sum uint64
			for _, b := range balance {
				sum += b
			}
			return sum
		}
		panic("bad opcode")
	}), hybsync.WithMaxThreads(32))
	if err != nil {
		log.Fatalf("hybsync.NewObject: %v", err)
	}
	defer bank.Close()

	// Seed every account with 1000.
	h0 := hybsync.MustHandle(bank)
	for a := uint64(0); a < accounts; a++ {
		h0.Apply(opDeposit, a<<32|1000)
	}
	want := h0.Apply(opTotal, 0)

	// 16 tellers shuffle money around concurrently.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := hybsync.MustHandle(bank)
			rng := uint64(g + 1)
			for i := 0; i < 20_000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := rng % accounts
				to := (rng >> 8) % accounts
				amt := rng % 50
				h.Apply(opTransfer, from<<48|to<<32|amt)
			}
		}(g)
	}
	wg.Wait()

	got := h0.Apply(opTotal, 0)
	fmt.Printf("total before: %d\n", want)
	fmt.Printf("total after:  %d\n", got)
	if got != want {
		fmt.Println("MONEY WAS CREATED OR DESTROYED — linearizability violated!")
	} else {
		fmt.Println("conserved: every transfer was atomic")
	}
	if sr, ok := bank.(hybsync.StatsSource); ok {
		rounds, combined := sr.Stats()
		fmt.Printf("combining: %d rounds, %d requests combined for others\n", rounds, combined)
	}
}
