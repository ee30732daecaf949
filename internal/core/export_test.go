package core

// ForceHybridMode drives a hybrid transition edge for the external
// test package (hybrid_contract_test.go cannot live in package core:
// the script it runs, internal/handletest, imports core).
func ForceHybridMode(h *Hybrid, promote bool) { forceMode(h, promote) }
