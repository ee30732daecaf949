package lintkit

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments are hyblint's annotation surface: a comment of
// the exact form
//
//	//hyblint:name
//
// (no space after //, like //go:build) either on the line of a
// construct or as the last line of the comment group immediately above
// it. Two kinds exist: markers that opt a declaration into a contract
// (//hyblint:padded, //hyblint:padsep on struct types) and the one
// waiver, which suppresses a finding at one site with reviewer sign-off
// (//hyblint:rawspin). Anything after the name on the same comment line
// is free-form justification.
const directivePrefix = "//hyblint:"

// Directive reports whether a hyblint directive named name is attached
// to node: on the source line where node starts, or on the line just
// above it (covering doc comments, whose group ends there).
func (p *Pass) Directive(node ast.Node, name string) bool {
	file := p.fileOf(node.Pos())
	if file == nil {
		return false
	}
	dirs := p.fileDirectives(file)
	line := p.Fset.Position(node.Pos()).Line
	for _, d := range dirs[line] {
		if d == name {
			return true
		}
	}
	for _, d := range dirs[line-1] {
		if d == name {
			return true
		}
	}
	return false
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// fileDirectives lazily indexes a file's hyblint directives by the
// line each one sits on.
func (p *Pass) fileDirectives(f *ast.File) map[int][]string {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := make(map[int][]string)
	for _, g := range f.Comments {
		for _, c := range g.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(text, " ")
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			m[line] = append(m[line], name)
		}
	}
	p.directives[f] = m
	return m
}
