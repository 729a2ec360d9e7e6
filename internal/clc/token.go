// Package clc implements an OpenCL C front-end: a lexer, a small
// preprocessor, a recursive-descent parser producing an AST, and a semantic
// analyzer that resolves types and address spaces. The source is lexed
// once: the preprocessor lexes it line by line and hands the parser the
// expanded tokens, each carrying its position in the source, so every
// diagnostic and every IR position names the source's own line and column.
//
// The supported language is the OpenCL C 1.x subset exercised by the
// benchmark suite of the Grover paper: scalar and vector arithmetic types,
// pointers with address-space qualifiers (__global, __local, __constant,
// __private), fixed-size arrays, the full statement set (if/else, for,
// while, do, break, continue, return, compound), assignment and compound
// assignment, the conditional operator, vector component selection
// (swizzles), and the work-item / synchronization builtins.
package clc

import "fmt"

// TokenKind enumerates lexical token categories.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokIntLit
	TokFloatLit
	TokCharLit
	TokStringLit
	TokPunct
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokIntLit:
		return "integer literal"
	case TokFloatLit:
		return "float literal"
	case TokCharLit:
		return "char literal"
	case TokStringLit:
		return "string literal"
	case TokPunct:
		return "punctuator"
	}
	return "unknown"
}

// Pos is a source position (1-based line and column).
type Pos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "EOF"
	}
	return t.Text
}

// Is reports whether the token is a punctuator or keyword with the given
// spelling.
func (t Token) Is(text string) bool {
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

// keywords is the set of reserved words recognized by the lexer. Type names
// such as float4 are handled by the parser, not reserved here.
var keywords = map[string]bool{
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"return": true, "break": true, "continue": true, "switch": true,
	"case": true, "default": true, "goto": true, "sizeof": true,
	"typedef": true, "struct": true, "union": true, "enum": true,
	"const": true, "volatile": true, "restrict": true, "static": true,
	"extern": true, "inline": true, "void": true, "char": true,
	"short": true, "int": true, "long": true, "float": true,
	"double": true, "signed": true, "unsigned": true, "bool": true,
	"__kernel": true, "kernel": true,
	"__global": true, "global": true,
	"__local": true, "local": true,
	"__constant": true, "constant": true,
	"__private": true, "private": true,
	"__read_only": true, "__write_only": true,
	"__attribute__": true,
}

// Error is a front-end diagnostic carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
