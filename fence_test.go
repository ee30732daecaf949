package hybsync_test

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fenceBudget is how many locked instructions an uncontended blocking
// Apply may execute on amd64, where every Go atomic store, swap, CAS
// and add is one (an XCHG or a LOCK-prefixed instruction) and a load is
// none. CC-Synch needs three: the tail swap, the link store and the
// hand-off store. The MCS lock, and the hybrid's lock mode, need two:
// the tail swap and the release CAS. The constructions not listed here
// are measured and logged, not budgeted.
var fenceBudget = map[string]float64{"ccsynch": 3, "mcs-lock": 2, "hybrid": 2}

// fenceCalls are the packages whose functions a counted call is
// followed into: the atomic operations that are calls rather than
// intrinsics (the pointer atomics, which check the write barrier first).
var fenceCalls = []string{"sync/atomic.", "internal/runtime/atomic."}

// TestFenceBudget counts the locked instructions of each construction's
// uncontended blocking Apply, as executed, from two builds of
// testdata/fencepath (one handle, n Applies of v += arg):
//
//   - a coverage build, whose counters say how often each source line of
//     the module ran during the n calls;
//   - a plain build with inlining off in the module, disassembled by go
//     tool objdump, so that every locked instruction, and every call into
//     the atomic packages (whose own locked instructions it counts), sits
//     on the module line that issued it.
//
// Each such instruction counts as often as its line ran, and the sum
// over n is the count per Apply. A budgeted construction fails when that
// exceeds its budget by half a fence or more: an amortized share below
// that — a store once every few hundred operations — is reported, not
// charged. Run with -v for the table DESIGN "Fence budget"
// reads. Like TestNoRawSpinLoops it checks the module's own code, here
// as the amd64 compiler emits it, so it skips on other targets.
func TestFenceBudget(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("locked instructions are counted on amd64 only")
	}
	if testing.Short() {
		t.Skip("builds and disassembles a program")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command")
	}
	dir := t.TempDir()
	run := func(name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Env = append(os.Environ(), "GOARCH=amd64", "GOCOVERDIR="+filepath.Join(dir, "exit"))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderrOf(err))
		}
		return out
	}
	covBin, plainBin := filepath.Join(dir, "cov"), filepath.Join(dir, "plain")
	run(goTool, "build", "-cover", "-covermode=atomic", "-coverpkg=hybsync/...", "-o", covBin, "./testdata/fencepath")
	run(goTool, "build", "-gcflags=hybsync/...=-l", "-o", plainBin, "./testdata/fencepath")
	if err := os.Mkdir(filepath.Join(dir, "exit"), 0o755); err != nil {
		t.Fatal(err)
	}
	sites := fenceSites(t, run(goTool, "tool", "objdump", "-s", `^(hybsync|sync/atomic|internal/runtime/atomic)`, plainBin))
	if len(sites) == 0 {
		t.Fatal("no locked instruction found in the module: the disassembly was not parsed")
	}

	const n = 1024
	for _, algo := range requiredAlgos {
		covDir := filepath.Join(dir, algo)
		if err := os.Mkdir(covDir, 0o755); err != nil {
			t.Fatal(err)
		}
		run(covBin, "-algo", algo, "-n", strconv.Itoa(n), "-covdir", covDir)
		profile := filepath.Join(dir, algo+".txt")
		run(goTool, "tool", "covdata", "textfmt", "-i", covDir, "-o", profile)
		text, err := os.ReadFile(profile)
		if err != nil {
			t.Fatal(err)
		}
		lines := lineCounts(t, text)
		var total float64
		var where []string
		for _, s := range sites {
			ran, ok := lines.at(s.file, s.line)
			if !ok {
				t.Errorf("%s: %s:%d (%s) is in no coverage block", algo, s.file, s.line, s.instr)
				continue
			}
			if ran > 0 {
				total += float64(ran * s.locked)
				where = append(where, fmt.Sprintf("%s:%d %s ×%.3g", filepath.Base(s.file), s.line, goShape.ReplaceAllString(s.instr, "[…]"), float64(ran*s.locked)/n))
			}
		}
		perApply := total / n
		t.Logf("%-9s %5.2f locked instructions per Apply: %s", algo, perApply, strings.Join(where, "; "))
		if budget, ok := fenceBudget[algo]; ok && perApply >= budget+0.5 {
			t.Errorf("%s: an uncontended Apply executes %.2f locked instructions, budget %g", algo, perApply, budget)
		}
	}
}

// fenceSite is a locked instruction in the module's code, or a call
// into an atomic package that executes locked of them.
type fenceSite struct {
	file   string // module-relative path, as coverage names it
	line   int
	instr  string
	locked int64
}

var (
	objdumpText  = regexp.MustCompile(`^TEXT (.*)\(SB\) (\S+)$`)
	objdumpInstr = regexp.MustCompile(`^\s+(\S+):(\d+)\s+0x[0-9a-f]+\s+[0-9a-f]+\s+(.*?)\s*$`)
	objdumpCall  = regexp.MustCompile(`^(?:CALL|JMP) (.*)\(SB\)$`)
	goShape      = regexp.MustCompile(`\[go\.shape\..*\]`) // a generic instantiation's type arguments, elided in the log
)

// fenceSites reads go tool objdump's listing: the module's functions'
// locked instructions, and their calls into the atomic packages, each
// weighted by the locked instructions the callee executes (followed
// through the callee's own calls and tail jumps into those packages).
func fenceSites(t *testing.T, listing []byte) []fenceSite {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	type instr struct {
		file, text string
		line       int
	}
	funcs := map[string][]instr{}
	var cur string
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if m := objdumpText.FindStringSubmatch(sc.Text()); m != nil {
			cur = m[1]
			// The module's functions are keyed by their directory too;
			// its generated wrappers, which have no source file, are
			// not read.
			if strings.HasPrefix(cur, "hybsync") {
				rel, err := filepath.Rel(root, filepath.Dir(m[2]))
				if err != nil || !filepath.IsAbs(m[2]) {
					cur = ""
					continue
				}
				cur = filepath.ToSlash(rel) + "\x00" + cur
			}
			funcs[cur] = nil
			continue
		}
		if m := objdumpInstr.FindStringSubmatch(sc.Text()); m != nil && cur != "" {
			line, _ := strconv.Atoi(m[2])
			funcs[cur] = append(funcs[cur], instr{file: m[1], line: line, text: m[3]})
		}
	}
	locked := func(text string) bool {
		return strings.HasPrefix(text, "LOCK ") || strings.HasPrefix(text, "XCHG") && strings.Contains(text, "(")
	}
	memo := map[string]int64{}
	var callee func(name string) int64
	callee = func(name string) int64 {
		if v, ok := memo[name]; ok {
			return v
		}
		memo[name] = 0 // a cycle counts once
		var v int64
		for _, in := range funcs[name] {
			if locked(in.text) {
				v++
			} else if m := objdumpCall.FindStringSubmatch(in.text); m != nil && followed(m[1]) {
				v += callee(m[1])
			}
		}
		memo[name] = v
		return v
	}
	var sites []fenceSite
	for key, ins := range funcs {
		dir, _, inModule := strings.Cut(key, "\x00")
		if !inModule {
			continue
		}
		for _, in := range ins {
			w := int64(0)
			if locked(in.text) {
				w = 1
			} else if m := objdumpCall.FindStringSubmatch(in.text); m != nil && followed(m[1]) {
				w = callee(m[1])
			}
			if w > 0 {
				sites = append(sites, fenceSite{file: path.Join("hybsync", dir, in.file), line: in.line, instr: in.text, locked: w})
			}
		}
	}
	slices.SortFunc(sites, func(a, b fenceSite) int {
		return cmp.Or(strings.Compare(a.file, b.file), a.line-b.line)
	})
	return sites
}

// followed reports whether a call to fn is followed into.
func followed(fn string) bool {
	for _, p := range fenceCalls {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// coverLines is a coverage profile's blocks, by file.
type coverLines map[string][]coverBlock

type coverBlock struct{ from, to, count int64 }

// at is how often line ran: the most of any block that covers it (two
// blocks meet on a line that ends one statement list and opens
// another). ok is false when no block covers it.
func (c coverLines) at(file string, line int) (count int64, ok bool) {
	for _, b := range c[file] {
		if b.from <= int64(line) && int64(line) <= b.to {
			count, ok = max(count, b.count), true
		}
	}
	return count, ok
}

// lineCounts parses go tool covdata textfmt's output:
// file:fromLine.fromCol,toLine.toCol statements count.
func lineCounts(t *testing.T, profile []byte) coverLines {
	t.Helper()
	block := regexp.MustCompile(`^(.*):(\d+)\.\d+,(\d+)\.\d+ \d+ (\d+)$`)
	c := coverLines{}
	for _, l := range strings.Split(string(profile), "\n") {
		if m := block.FindStringSubmatch(l); m != nil {
			from, _ := strconv.ParseInt(m[2], 10, 64)
			to, _ := strconv.ParseInt(m[3], 10, 64)
			count, _ := strconv.ParseInt(m[4], 10, 64)
			c[m[1]] = append(c[m[1]], coverBlock{from, to, count})
		}
	}
	if len(c) == 0 {
		t.Fatal("empty coverage profile")
	}
	return c
}

// stderrOf is what a failed command wrote to its standard error.
func stderrOf(err error) string {
	if e, ok := err.(*exec.ExitError); ok {
		return string(e.Stderr)
	}
	return ""
}
