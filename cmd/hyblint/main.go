// Command hyblint runs the hybsync analyzer suite as a go vet tool:
//
//	go build -o /tmp/hyblint ./cmd/hyblint
//	go vet -vettool=/tmp/hyblint ./...
//
// It speaks the cmd/go unit-checker protocol without depending on
// golang.org/x/tools (the build must work offline from a bare module
// cache): it answers -V=full with a content-hashed build ID so cmd/go
// can cache runs, answers -flags with its flag inventory, and
// otherwise expects a single *.cfg argument — the JSON work unit
// cmd/go writes per package, naming the Go files to parse and the
// export data of every dependency to type-check against.
//
// The suite exchanges no cross-package facts, so dependency units
// (VetxOnly) are satisfied by writing an empty facts file, and each
// analyzed package stands alone.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"hybsync/internal/analysis/hyblint"
	"hybsync/internal/analysis/lintkit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hyblint: ")

	jsonOut := false
	var cfgFile string
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion()
			return
		case arg == "-flags" || arg == "--flags":
			printFlags()
			return
		case arg == "-json" || arg == "--json":
			jsonOut = true
		case strings.HasSuffix(arg, ".cfg"):
			cfgFile = arg
		default:
			log.Fatalf("unrecognized argument %q; hyblint is a go vet -vettool", arg)
		}
	}
	if cfgFile == "" {
		log.Fatalf("usage: hyblint [-json] <unit>.cfg (run via go vet -vettool=$(which hyblint))")
	}
	os.Exit(runUnit(cfgFile, jsonOut))
}

// printVersion answers -V=full in the form cmd/go's tool-ID probe
// parses: name, "version", "devel", and a trailing buildID= whose
// value is a content hash of the executable, so rebuilt tools
// invalidate cmd/go's vet cache.
func printVersion() {
	progname := "hyblint"
	h := sha256.New()
	if self, err := os.Open(os.Args[0]); err == nil {
		_, _ = io.Copy(h, self)
		self.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
}

// printFlags answers cmd/go's -flags probe with the tool's flag
// inventory as analysisflags-shaped JSON.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	flags := []jsonFlag{
		{Name: "V", Bool: false, Usage: "print version and exit"},
		{Name: "json", Bool: true, Usage: "emit JSON output"},
	}
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// unitConfig is the JSON work unit cmd/go hands a vet tool, one per
// package. Field names and meanings follow the vet/unitchecker
// protocol; fields hyblint does not use are kept so decoding stays
// strict about nothing and tolerant of everything.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgFile string, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	// cmd/go expects a facts file for every unit and runs dependency
	// units for facts alone; the suite has none to exchange.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			log.Fatal(err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{
		Importer:  unitImporter(fset, &cfg),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Printf("%v", err)
		return 1
	}

	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := make(map[string][]jsonDiag)
	exit := 0
	for _, a := range hyblint.Analyzers() {
		var diags []lintkit.Diagnostic
		pass := &lintkit.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: tc.Sizes,
			GOARCH:     build.Default.GOARCH,
			Report:     func(d lintkit.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			log.Printf("analyzer %s failed on %s: %v", a.Name, cfg.ImportPath, err)
			exit = 1
			continue
		}
		for _, d := range diags {
			exit = 1
			posn := fset.Position(d.Pos)
			if jsonOut {
				byAnalyzer[a.Name] = append(byAnalyzer[a.Name], jsonDiag{Posn: posn.String(), Message: d.Message})
			} else {
				fmt.Fprintf(os.Stderr, "%s: %s\n", posn, d.Message)
			}
		}
	}
	if jsonOut {
		tree := map[string]map[string][]jsonDiag{cfg.ID: byAnalyzer}
		data, err := json.MarshalIndent(tree, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
	}
	return exit
}

// unitImporter resolves imports the way the unit config describes:
// the import path is first mapped through the unit's ImportMap (vendor
// and version resolution already done by cmd/go), then loaded from the
// per-dependency export data in PackageFile.
func unitImporter(fset *token.FileSet, cfg *unitConfig) types.Importer {
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
