package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGolden pins every figure byte for byte. testdata/all.golden is
// what the hand-written figure functions this package used to hold
// printed for the same flags (captured from that binary), plus Figure
// 5a's note; the simulator is deterministic, so any difference is a
// change of behaviour: a moved number means a construction, an object,
// the chip model or a figure's cells changed. Regenerate it only for
// such a change, with
//
//	go run ./cmd/tilebench -fig all -horizon 10000 -runs 2 > cmd/tilebench/testdata/all.golden
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "all", "-horizon", "10000", "-runs", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from testdata/all.golden:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/all.golden %d", len(gl), len(wl))
	}
}

// TestBadFlagsExit2: a value that cannot be simulated is refused with a
// message and status 2 instead of a table of NaN or 0.00, as an unknown
// figure is.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "4a", "-runs", "0"},
		{"-fig", "4a", "-horizon", "0"},
		{"-fig", "4a", "-maxops", "0"},
		{"-fig", "4a", "-runs", "-3"},
		{"-fig", "6z"},
		{"-runs", "many"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: want a message on stderr and nothing on stdout, got %q and %q", args, stderr.String(), stdout.String())
		}
	}
}

// TestHelpListsTheFigures: the -fig help and the unknown-figure message
// are built from sim.Figures, so they name every figure the golden holds.
func TestHelpListsTheFigures(t *testing.T) {
	var stdout, help, unknown bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &help); code != 0 {
		t.Errorf("-h: exit status %d, want 0", code)
	}
	run([]string{"-fig", "nope"}, &stdout, &unknown)
	for _, flag := range []string{"-fig", "-horizon", "-runs", "-maxops"} {
		if !strings.Contains(help.String(), "  "+flag+" ") {
			t.Errorf("-h does not list %s:\n%s", flag, help.String())
		}
	}
	for _, name := range []string{"3a", "3b", "3c", "4a", "4b", "4c", "5a", "5b", "cas", "x86", "ablate-swap", "ablate-drain", "locks", "tail"} {
		if !strings.Contains(help.String(), name+",") || !strings.Contains(unknown.String(), name+", ") {
			t.Errorf("figure %s missing from the -fig help or the unknown-figure message:\n%s%s", name, help.String(), unknown.String())
		}
	}
}
