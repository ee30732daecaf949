// Command benchguard compares fresh hybsweep runs against a baseline
// JSONL file and fails loudly when cost regresses beyond a tolerance —
// the CI guard that keeps the batch, pipeline and telemetry machinery
// from taxing the measured paths.
//
// Lines are keyed by the full cell identity (bench, the grid point —
// every axis of benchfmt.Axes — and gomaxprocs); -where clauses select
// which baseline cells to gate, and every selected cell must appear in
// the candidates:
//
//	GOMAXPROCS=2 hybsweep -grid '...' -out run1.jsonl        (repeat)
//	benchguard -baseline BENCH_sweep.jsonl -max-regress 0.50 \
//	    -where 'gomaxprocs=2' -where 'depth>1' -where 'algo=mpserver,hybcomb' \
//	    run1.jsonl run2.jsonl run3.jsonl
//
// A -where clause is `field OP value`: OP one of = != > >= < <=. The
// fields are the grid axes plus bench, gomaxprocs, numcpu and cell;
// numeric ones (threads, shards, depth, batch, gomaxprocs, numcpu,
// cell) support all six operators and symbolic ones (bench, algo,
// dist) = and !=, where `=` against a comma-separated list means "is
// one of". Clauses AND together; an unknown field name is an error.
// Failed lines are never gated.
//
// -vs gates one algorithm AGAINST ANOTHER instead of against its own
// history: -vs 'hybrid=mcs-lock' pairs each selected mcs-lock cell of
// the baseline with the hybrid cell of the candidates at the same
// scenario (same bench, gomaxprocs and every axis but algo) and fails
// if the candidate algorithm's median ns/op exceeds the baseline
// algorithm's by more than the tolerance. Given the run files
// themselves as the baseline, both algorithms ran in the same
// processes and machine speed cancels out — how CI enforces the
// adaptive hybrid's "within 10% of the best lock at one thread" claim:
//
//	cat run1.jsonl run2.jsonl run3.jsonl > all.jsonl
//	benchguard -vs 'hybrid=mcs-lock' -max-regress 0.10 \
//	    -where 'threads=1' -baseline all.jsonl run1.jsonl run2.jsonl run3.jsonl
//
// Both sides of every comparison are MEDIANS: of the candidate files'
// samples of the cell (run an odd number, three is typical, so one
// noisy run cannot fail or pass the gate alone), and of the baseline's
// when it holds the cell more than once. Each side is printed with its
// quartiles and run count, `median [q1–q3 n=runs]`, so a trip can be
// read against the spread of the samples behind it; the spread never
// changes the verdict. Exit status 1 means at least
// one point regressed more than -max-regress relative to the baseline
// or went missing (extra candidate points are ignored); 2 is a usage
// error — a missing -baseline, an unreadable file, a bad -vs or -where.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"hybsync/internal/benchfmt"
)

// whereFlags accumulates repeated -where clauses.
type whereFlags []string

func (w *whereFlags) String() string { return strings.Join(*w, " && ") }
func (w *whereFlags) Set(s string) error {
	*w = append(*w, s)
	return nil
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline hybsweep JSONL (required): the committed BENCH_sweep.jsonl, or with -vs the run files concatenated")
	var where whereFlags
	flag.Var(&where, "where", "cell selector like 'depth>1' or 'algo=mpserver,hybcomb' (repeatable, ANDed)")
	vs := flag.String("vs", "", "cross-algorithm gate 'candidate=baseline' (e.g. 'hybrid=mcs-lock'): compare the candidate algo's cells against the baseline algo's at the same scenario instead of against history")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum allowed fractional ns/op regression vs baseline")
	flag.Parse()
	if *baselinePath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: need -baseline and at least one candidate run file")
		os.Exit(2)
	}

	failed, err := guard(*baselinePath, flag.Args(), where, *vs, *maxRegress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL — median regressed more than %.0f%% vs %s (or points missing)\n",
			*maxRegress*100, *baselinePath)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// compare runs the gate: for every baseline point, the median of the
// candidate samples against the median of the baseline's, within the
// tolerance, one line per point on w. Returns true when any point
// failed.
func compare(w io.Writer, baseline, candidates map[string][]float64, maxRegress float64) bool {
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := false
	for _, key := range keys {
		base := median(baseline[key])
		runs := candidates[key]
		if len(runs) == 0 {
			fmt.Fprintf(w, "  %-80s baseline %s  candidate MISSING\n", key, spread(baseline[key]))
			failed = true
			continue
		}
		delta := (median(runs) - base) / base
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "  %-80s baseline %s  candidate %s  %+6.1f%%  %s\n",
			key, spread(baseline[key]), spread(runs), delta*100, status)
	}
	return failed
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spread formats one side of a comparison: the median of xs (ns/op),
// its first and third quartiles — the medians of the lower and upper
// halves, each holding the middle sample when n is odd — and n.
func spread(xs []float64) string {
	med, n := median(xs), len(xs) // median sorts xs
	return fmt.Sprintf("%10.1f ns/op [%.1f–%.1f n=%d]", med, median(xs[:(n+1)/2]), median(xs[n/2:]), n)
}

// cellKey is the full identity of a sweep cell — bench, the grid point
// and gomaxprocs — so gating never conflates two scenarios that share
// an algorithm.
func cellKey(r benchfmt.SweepRecord) string {
	return fmt.Sprintf("%s %s gmp=%d", r.Bench, r.Point, r.GoMaxProcs)
}

// scenarioKey is a cell's identity minus the algorithm — the pairing
// identity of the -vs gate.
func scenarioKey(r benchfmt.SweepRecord) string {
	r.Algo = ""
	return cellKey(r)
}

// samples reads the measured ns/op of every line of paths that sel
// matches, grouped under key; a non-empty algo keeps that algorithm's
// lines only.
func samples(paths []string, algo string, sel selector, key func(benchfmt.SweepRecord) string) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		recs, err := benchfmt.ReadSweep(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range recs {
			if r.Error != "" || r.NsPerOp <= 0 || (algo != "" && r.Algo != algo) || !sel.match(r) {
				continue
			}
			out[key(r)] = append(out[key(r)], r.NsPerOp)
		}
	}
	return out, nil
}

func guard(baselinePath string, candidatePaths []string, where whereFlags, vs string, maxRegress float64) (bool, error) {
	sel, err := parseClauses(where)
	if err != nil {
		return false, err
	}
	// Without -vs cells gate against their own history under the full
	// cell identity. With it the baseline algo's cells anchor each
	// scenario and the candidate algo's cells are gated against them;
	// the key drops the algo so the two pair up.
	candAlgo, baseAlgo, key := "", "", cellKey
	if vs != "" {
		var ok bool
		if candAlgo, baseAlgo, ok = strings.Cut(vs, "="); !ok || candAlgo == "" || baseAlgo == "" {
			return false, fmt.Errorf("bad -vs %q (want candidate=baseline, e.g. hybrid=mcs-lock)", vs)
		}
		key = scenarioKey
	}
	baseline, err := samples([]string{baselinePath}, baseAlgo, sel, key)
	if err != nil {
		return false, fmt.Errorf("baseline: %w", err)
	}
	if len(baseline) == 0 {
		return false, fmt.Errorf("baseline %s has no measured cells matching %q", baselinePath, where.String())
	}
	candidates, err := samples(candidatePaths, candAlgo, nil, key)
	if err != nil {
		return false, err
	}
	what := "cells"
	if vs != "" {
		what = candAlgo + " vs " + baseAlgo
	}
	fmt.Printf("benchguard: %s where [%s], median of %d run(s) vs %s (tolerance +%.0f%%)\n",
		what, where.String(), len(candidatePaths), baselinePath, maxRegress*100)
	return compare(os.Stdout, baseline, candidates, maxRegress), nil
}

// ---- -where clause parsing and matching ----

type clause struct {
	field string
	op    string
	value string
	num   int // value as an integer, on numeric fields
}

type selector []clause

var clauseOps = []string{">=", "<=", "!=", ">", "<", "="} // two-char ops first

// field is one name a -where clause can select on: num reads a
// numeric field, str a symbolic one.
type field struct {
	num func(benchfmt.SweepRecord) int
	str func(benchfmt.SweepRecord) string
}

// fields is what -where can name: every axis of the grid, by its row
// of the axis table, plus the record-level context.
var fields = func() map[string]field {
	m := map[string]field{
		"bench":      {str: func(r benchfmt.SweepRecord) string { return r.Bench }},
		"gomaxprocs": {num: func(r benchfmt.SweepRecord) int { return r.GoMaxProcs }},
		"numcpu":     {num: func(r benchfmt.SweepRecord) int { return r.NumCPU }},
		"cell":       {num: func(r benchfmt.SweepRecord) int { return r.Cell }},
	}
	for _, a := range benchfmt.Axes {
		if a.Numeric() {
			m[a.Name] = field{num: func(r benchfmt.SweepRecord) int { return a.Int(r.Point) }}
		} else {
			m[a.Name] = field{str: func(r benchfmt.SweepRecord) string { return a.Get(r.Point) }}
		}
	}
	return m
}()

// parseClauses parses and validates every clause up front — an unknown
// field name (a typo would otherwise select nothing under = and
// everything under !=), an ordering operator on a string field, or a
// non-integer value for a numeric field is an error here, so match
// cannot meet a clause it does not understand.
func parseClauses(specs []string) (selector, error) {
	var sel selector
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		var c clause
		found := false
		for _, op := range clauseOps {
			if i := strings.Index(spec, op); i > 0 {
				c = clause{
					field: strings.TrimSpace(spec[:i]),
					op:    op,
					value: strings.TrimSpace(spec[i+len(op):]),
				}
				found = true
				break
			}
		}
		if !found || c.value == "" {
			return nil, fmt.Errorf("bad -where clause %q (want field OP value, OP in = != > >= < <=)", spec)
		}
		f, known := fields[c.field]
		switch {
		case !known:
			names := make([]string, 0, len(fields))
			for name := range fields {
				names = append(names, name)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("-where %q: unknown field %q (known: %s)", spec, c.field, strings.Join(names, ", "))
		case f.num != nil:
			var err error
			if c.num, err = strconv.Atoi(c.value); err != nil {
				return nil, fmt.Errorf("-where %q: numeric field %q needs an integer", spec, c.field)
			}
		case c.op != "=" && c.op != "!=":
			return nil, fmt.Errorf("-where %q: string field %q supports only = and !=", spec, c.field)
		}
		sel = append(sel, c)
	}
	return sel, nil
}

func (s selector) match(r benchfmt.SweepRecord) bool {
	for _, c := range s {
		f := fields[c.field]
		if f.num != nil {
			num, want, ok := f.num(r), c.num, false
			switch c.op {
			case "=":
				ok = num == want
			case "!=":
				ok = num != want
			case ">":
				ok = num > want
			case ">=":
				ok = num >= want
			case "<":
				ok = num < want
			case "<=":
				ok = num <= want
			}
			if !ok {
				return false
			}
			continue
		}
		// String field: '=' against a comma-separated list is "is one
		// of"; '!=' is "is none of".
		str, inList := f.str(r), false
		for _, v := range strings.Split(c.value, ",") {
			if str == strings.TrimSpace(v) {
				inList = true
				break
			}
		}
		if (c.op == "=") != inList {
			return false
		}
	}
	return true
}
