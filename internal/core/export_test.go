package core

import (
	"math"

	"hybsync/internal/mpq"
)

// ForceHybridMode drives a hybrid transition edge for the external
// test package (hybrid_contract_test.go cannot live in package core:
// the script it runs, internal/handletest, imports core).
func ForceHybridMode(h *Hybrid, promote bool) { forceMode(h, promote) }

// FreezeHybrid disables h's controller — no run of operations is ever a
// whole evaluation window — so forced transitions own the mode. Call it
// before h hands out handles.
func FreezeHybrid(h *Hybrid) { h.window = math.MaxUint64 }

// HybCombLastCombiner is the thread id on h's last registered combiner
// node: the thread that promoted itself last (-1 before anyone did).
func HybCombLastCombiner(h *HybComb) int32 { return h.lastReg.Load().threadID.Load() }

// MPServerQuitMarker sends s's server the quit marker as Close does,
// without sealing s: a run a handle sends afterwards lands behind it on
// the request ring, which otherwise only an operation issued while Close
// runs, against its contract, can do.
func MPServerQuitMarker(s *MPServer) { s.reqs.Send(mpq.Words3(0, opQuit, 0)) }
