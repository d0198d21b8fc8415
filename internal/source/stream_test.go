package source_test

// The parser pulls its tokens from the lexer one at a time. These tests pin
// it to what parsing a fully lexed token slice produced: the same AST and
// the same error text for every family's kernels, the Taco kernels, the fuzz
// corpus, and kernels cut short or broken so that a parse error comes alone
// or before a lexical error, near it or far from it. testdata/parse.golden was recorded from the
// slice-based parser; regenerate it only for an intended change of the
// language or of an error text:
//
//	go test ./internal/source -run TestParseGolden -update

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"phloem/internal/source"
	"phloem/internal/taco"
	"phloem/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// parseInputs is the corpus, in a fixed order, by name.
func parseInputs(t *testing.T) (names, srcs []string) {
	add := func(name, src string) {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	families := []struct{ name, src string }{
		{"BFS", workloads.BFSSource}, {"BFSDP", workloads.BFSDPSource},
		{"CC", workloads.CCSource}, {"CCDP", workloads.CCDPSource},
		{"PRD", workloads.PRDSource}, {"PRDDP", workloads.PRDDPSource},
		{"Radii", workloads.RadiiSource}, {"RadiiDP", workloads.RadiiDPSource},
		{"SpMM", workloads.SpMMSource}, {"SpMMDP", workloads.SpMMDPSource},
		{"PRDApply", workloads.PRDApplySource},
		{"SpMVNoRestrict", workloads.SpMVNoRestrictSource},
		{"BFSAliased", workloads.BFSAliasedSource},
	}
	for _, k := range taco.Kernels() {
		src, err := taco.Emit(k)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := taco.EmitDP(k)
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, struct{ name, src string }{"taco-" + string(k), src},
			struct{ name, src string }{"taco-dp-" + string(k), dp})
	}
	for _, f := range families {
		add(f.name, f.src)
		// Cut points give parse errors at the end of input; a stray '@'
		// after each cut is a lexical error that follows the parse error.
		for i := 1; i < 8; i++ {
			cut := f.src[:len(f.src)*i/8]
			add(fmt.Sprintf("%s[:%d/8]", f.name, i), cut)
			add(fmt.Sprintf("%s[:%d/8]+lexerr", f.name, i), cut+"\n  @ /*")
		}
		add(f.name+"+trailing", f.src+"\nvoid")
		add(f.name+"+trailing+lexerr", f.src+"\nvoid\n#include <x>")
		// A parse error in the first statement, and a lexical error at
		// the end of the file, far beyond the parser's lookahead.
		early := strings.Replace(f.src, "{", "{ int = 1;", 1)
		add(f.name+"+early", early)
		add(f.name+"+early+lexerr", early+"\n$")
	}
	for i, s := range source.FuzzSeeds {
		add(fmt.Sprintf("fuzz%d", i), s)
	}
	add("parse-then-lex", "void k(int n) { int = 1; }\n\n$")
	add("lex-then-parse", "void k(int n) { int x = 1 ` ; }")
	add("unterminated-comment", "void k(int n) { /* }")
	return names, srcs
}

// render prints an AST node with every field and the dynamic type of every
// interface value, following pointers.
func render(sb *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			sb.WriteString("nil")
			return
		}
		if v.Kind() == reflect.Interface {
			fmt.Fprintf(sb, "%s:", v.Elem().Type())
		}
		render(sb, v.Elem())
	case reflect.Struct:
		sb.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(sb, "%s=", v.Type().Field(i).Name)
			render(sb, v.Field(i))
			sb.WriteByte(' ')
		}
		sb.WriteByte('}')
	case reflect.Slice:
		sb.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			render(sb, v.Index(i))
			sb.WriteByte(' ')
		}
		sb.WriteByte(']')
	default:
		fmt.Fprintf(sb, "%v", v)
	}
}

// outcome is one golden line's verdict: the AST's digest, or the error.
func outcome(src string) (line, ast string) {
	fn, err := source.Parse(src)
	if err != nil {
		return "error: " + err.Error(), ""
	}
	var sb strings.Builder
	render(&sb, reflect.ValueOf(fn))
	return fmt.Sprintf("ast %x", sha256.Sum256([]byte(sb.String()))), sb.String()
}

func TestParseGolden(t *testing.T) {
	names, srcs := parseInputs(t)
	var got strings.Builder
	asts := map[string]string{}
	for i, src := range srcs {
		line, ast := outcome(src)
		fmt.Fprintf(&got, "%s\t%s\n", names[i], line)
		asts[names[i]] = ast
	}
	const path = "testdata/parse.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			name, _, _ := strings.Cut(gotLines[i], "\t")
			t.Errorf("parse differs from %s:\n got: %s\nwant: %s\nAST: %s", path, gotLines[i], wantLines[i], asts[name])
		}
	}
}

// TestLexErrorWins checks the precedence rule directly: whenever the whole
// input does not lex, Parse returns the lexer's error, wherever a parse
// error occurs.
func TestLexErrorWins(t *testing.T) {
	names, srcs := parseInputs(t)
	lexErrs := 0
	for i, src := range srcs {
		_, lexErr := source.LexAll(src)
		if lexErr == nil {
			continue
		}
		lexErrs++
		_, err := source.Parse(src)
		if err == nil || err.Error() != lexErr.Error() {
			t.Errorf("%s: Parse returned %v, want the lexical error %v", names[i], err, lexErr)
		}
	}
	if lexErrs < 100 {
		t.Errorf("only %d inputs fail to lex", lexErrs)
	}
}
