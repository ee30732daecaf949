// Tilesim: drive the simulated TILE-Gx chip — run a counter experiment
// under every registered construction that executes one, side by side,
// and print the cycle-level accounting the paper reads from hardware
// event counters; then program the chip directly.
//
//	go run ./examples/tilesim
package main

import (
	"fmt"
	"log"

	"hybsync/sim"
)

func main() {
	const threads = 20
	lab := &sim.Lab{Horizon: 100_000, Runs: 1} // simulated cycles (~83 µs at 1.2 GHz)

	fmt.Printf("simulated chip: %s\n\n", sim.ProfileTileGx().Name)

	for _, algo := range sim.Constructions("counter") {
		res, err := lab.Run(sim.Cell{Algo: algo, Object: "counter", Threads: threads, MaxOps: 200})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s %7.1f Mops/s   latency %5.0f cycles   fairness %.2f\n",
			algo, res.Mops(), res.AvgLatency(), res.Fairness())
		fmt.Printf("                servers, else busiest thread: %.1f cycles/op of which %.1f stalled\n",
			float64(res.ServiceBusy)/float64(res.Ops), float64(res.ServiceStall)/float64(res.Ops))
		if res.Rounds > 0 {
			fmt.Printf("                combining: %d rounds, %.1f requests/round, %.2f CAS/op\n",
				res.Rounds, res.CombiningRate(), float64(res.CASAttempts)/float64(res.Ops))
		}
		fmt.Println()
	}

	// The same chip can also be programmed directly. A two-core
	// ping-pong over the UDN:
	e := sim.NewEngine(sim.ProfileTileGx())
	var rtt uint64
	pong := e.Spawn("pong", 35, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			m := p.Recv(1)
			p.Send(int(m[0]), uint64(p.ID()))
		}
	})
	e.Spawn("ping", 0, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			t0 := p.Now()
			p.Send(pong.ID(), uint64(p.ID()))
			p.Recv(1)
			rtt = p.Now() - t0
		}
	})
	e.Run(0)
	fmt.Printf("UDN ping-pong corner-to-corner round trip: %d cycles\n", rtt)
}
