package benchfmt

import (
	"fmt"
	"strconv"
	"strings"
)

// Point is one point of the native scenario grid: the six axes, typed
// and comparable (a map key, an == operand). It is embedded in Record,
// so its tags are the axis fields of every sweep line, and Axes is the
// one table that names the fields: -grid parsing and enumeration
// (ParseGrid), benchguard's -where fields and cell keys (String) and
// hybsweep's summary series all range over it. Adding an axis is a
// field here plus its row in Axes, then its use in measure.Run and
// measure.Classify — nothing else spells an axis out.
//
// Dist is a key distribution ("uniform", "zipf:theta") or a
// phase-shifting load shape ("phase:period:duty").
type Point struct {
	Algo    string `json:"algo"`
	Threads int    `json:"threads"`
	Shards  int    `json:"shards,omitempty"`
	Dist    string `json:"dist,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Batch   int    `json:"batch,omitempty"`
}

// Axis is one row of the axis table: the name -grid, -where and the
// record's JSON tag spell, the values a grid sweeps when -grid does not
// name the axis, and the Point field behind it — num for an axis of
// positive integers, str for a symbolic one.
type Axis struct {
	Name    string
	Default string // a -grid value list: "1,2"
	num     func(*Point) *int
	str     func(*Point) *string
}

// Axes is the axis table, in enumeration order: ParseGrid varies the
// last axis fastest, which is what gives a sweep line's cell index its
// meaning.
var Axes = []Axis{
	{Name: "algo", Default: "mpserver,hybcomb,shmserver,ccsynch,mcs-lock", str: func(p *Point) *string { return &p.Algo }},
	{Name: "threads", Default: "1,2", num: func(p *Point) *int { return &p.Threads }},
	{Name: "shards", Default: "1", num: func(p *Point) *int { return &p.Shards }},
	{Name: "dist", Default: "uniform", str: func(p *Point) *string { return &p.Dist }},
	{Name: "depth", Default: "1", num: func(p *Point) *int { return &p.Depth }},
	{Name: "batch", Default: "1", num: func(p *Point) *int { return &p.Batch }},
}

// Numeric reports whether the axis holds positive integers (ordered
// comparisons apply) rather than symbols.
func (a Axis) Numeric() bool { return a.num != nil }

// Int returns p's value on a numeric axis.
func (a Axis) Int(p Point) int { return *a.num(&p) }

// Get returns p's value on the axis as -grid spells it; "" when the
// axis is blank (unset, or blanked to pair points across it).
func (a Axis) Get(p Point) string {
	if a.str != nil {
		return *a.str(&p)
	}
	if n := *a.num(&p); n != 0 {
		return strconv.Itoa(n)
	}
	return ""
}

// Set parses v onto p's field: any symbol on a symbolic axis (what a
// symbol means is measure.Check's business), a positive integer on a
// numeric one.
func (a Axis) Set(p *Point, v string) error {
	if a.str != nil {
		*a.str(p) = v
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return fmt.Errorf("axis %q: value %q is not a positive integer", a.Name, v)
	}
	*a.num(p) = n
	return nil
}

// String renders the point as the -grid spec that selects it,
// "algo=mpserver;threads=2;shards=1;dist=uniform;depth=1;batch=1",
// leaving blank axes out — so a point with algo blanked is the
// identity that pairs two algorithms at the same scenario.
func (p Point) String() string {
	var parts []string
	for _, a := range Axes {
		if v := a.Get(p); v != "" {
			parts = append(parts, a.Name+"="+v)
		}
	}
	return strings.Join(parts, ";")
}

// maxCells bounds a grid (the whole corpus grid is 6,912 cells), so a
// slip of the value lists is refused instead of enumerated.
const maxCells = 1 << 20

// ParseGrid enumerates the grid a spec like
//
//	"algo=mpserver,hybcomb;threads=1,2,4;depth=1,8"
//
// selects: ';' separates clauses, '=' binds an axis to a
// comma-separated value list, whitespace around tokens and empty
// clauses are ignored, and an axis the spec does not name sweeps its
// Default. The points come in cell order — the cartesian product with
// the last axis varying fastest, a point's position being its cell
// index — so the same spec always yields the same cells.
//
// Every value is checked once, so a bad spec fails before any cell
// runs: Set must accept it, and vet, when non-nil, is shown a Point holding that one
// value alone and may refuse it (hybsweep passes measure.Check, which
// knows which algorithms are registered and which dist labels parse).
// An unknown axis, an empty list or a refused value is an error naming
// it; so is a product beyond maxCells.
func ParseGrid(spec string, vet func(Point) error) ([]Point, error) {
	lists := make([]string, len(Axes))
	for i, a := range Axes {
		lists[i] = a.Default
	}
clauses:
	for _, clause := range strings.Split(spec, ";") {
		if clause = strings.TrimSpace(clause); clause == "" {
			continue
		}
		name, list, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("bad grid clause %q (want axis=v1,v2,...)", clause)
		}
		name = strings.TrimSpace(name)
		for i, a := range Axes {
			if a.Name == name {
				lists[i] = list
				continue clauses
			}
		}
		known := make([]string, len(Axes))
		for i, a := range Axes {
			known[i] = a.Name
		}
		return nil, fmt.Errorf("unknown axis %q (known: %s)", name, strings.Join(known, ", "))
	}

	points := []Point{{}}
	for i, a := range Axes {
		var values []string
		for _, v := range strings.Split(lists[i], ",") {
			if v = strings.TrimSpace(v); v == "" {
				continue
			}
			var alone Point
			if err := a.Set(&alone, v); err != nil {
				return nil, err
			}
			if vet != nil {
				if err := vet(alone); err != nil {
					return nil, err
				}
			}
			values = append(values, v)
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("axis %q: empty value list", a.Name)
		}
		if len(points)*len(values) > maxCells {
			return nil, fmt.Errorf("grid has more than %d cells", maxCells)
		}
		next := make([]Point, 0, len(points)*len(values))
		for _, p := range points {
			for _, v := range values {
				_ = a.Set(&p, v) // cannot fail: accepted above
				next = append(next, p)
			}
		}
		points = next
	}
	return points, nil
}
