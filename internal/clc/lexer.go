package clc

import (
	"strings"
)

// Lexer converts OpenCL C source text into a token stream. Comments and
// line continuations (backslash-newline) are skipped as blank space. The
// Preprocessor runs one Lexer per logical line, started at that line's
// number, so every token carries its position in the source; a '#' is an
// ordinary punctuator to the lexer.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src. The file name is used only in
// positions for diagnostics.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpaceAndComments consumes whitespace, line continuations and // and
// /* */ comments.
// It returns an error for an unterminated block comment.
func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isSpace(c), c == '\\' && (lx.peekAt(1) == '\n' || lx.peekAt(1) == '\r' && lx.peekAt(2) == '\n'):
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// multi-character punctuators, longest first.
var punct3 = []string{"<<=", ">>=", "..."}
var punct2 = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
}

// Next returns the next token. At end of input it returns a TokEOF token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil

	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(pos)

	case c == '"':
		return lx.lexString(pos)

	case c == '\'':
		return lx.lexChar(pos)
	}

	// Punctuators.
	rest := lx.src[lx.off:]
	for _, p := range punct3 {
		if strings.HasPrefix(rest, p) {
			for range p {
				lx.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			for range p {
				lx.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '=',
		'(', ')', '[', ']', '{', '}', ',', ';', ':', '?', '.', '#':
		lx.advance()
		return Token{Kind: TokPunct, Text: string(c), Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.off
	isFloat := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		if !isHexDigit(lx.peek()) {
			return Token{}, errf(pos, "malformed hex literal")
		}
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			// Exponent only if followed by digits (possibly signed).
			n := 1
			if lx.peekAt(n) == '+' || lx.peekAt(n) == '-' {
				n++
			}
			if isDigit(lx.peekAt(n)) {
				isFloat = true
				for i := 0; i < n; i++ {
					lx.advance()
				}
				for lx.off < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			}
		}
	}
	// Suffixes: f/F for float, u/U/l/L for ints (possibly repeated).
	for {
		c := lx.peek()
		if c == 'f' || c == 'F' {
			isFloat = true
			lx.advance()
			continue
		}
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			lx.advance()
			continue
		}
		break
	}
	text := lx.src[start:lx.off]
	kind := TokIntLit
	if isFloat {
		kind = TokFloatLit
	}
	return Token{Kind: kind, Text: text, Pos: pos}, nil
}

func (lx *Lexer) lexString(pos Pos) (Token, error) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) {
			return Token{}, errf(pos, "unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return Token{}, errf(pos, "unterminated escape")
			}
			e := lx.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '0':
				sb.WriteByte(0)
			case '\\', '"', '\'':
				sb.WriteByte(e)
			default:
				return Token{}, errf(pos, "unsupported escape \\%c", e)
			}
			continue
		}
		sb.WriteByte(c)
	}
	return Token{Kind: TokStringLit, Text: sb.String(), Pos: pos}, nil
}

func (lx *Lexer) lexChar(pos Pos) (Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return Token{}, errf(pos, "unterminated char literal")
	}
	var val byte
	c := lx.advance()
	if c == '\\' {
		if lx.off >= len(lx.src) {
			return Token{}, errf(pos, "unterminated char literal")
		}
		e := lx.advance()
		switch e {
		case 'n':
			val = '\n'
		case 't':
			val = '\t'
		case '0':
			val = 0
		case '\\', '\'', '"':
			val = e
		default:
			return Token{}, errf(pos, "unsupported escape \\%c", e)
		}
	} else {
		val = c
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return Token{}, errf(pos, "unterminated char literal")
	}
	return Token{Kind: TokCharLit, Text: string(val), Pos: pos}, nil
}

// LexAll tokenizes the whole input, returning the token list terminated by
// a TokEOF token.
func LexAll(file, src string) ([]Token, error) {
	return lexLine(nil, NewLexer(file, src))
}

// lexLine appends the tokens lx has left to toks, through the TokEOF.
func lexLine(toks []Token, lx *Lexer) ([]Token, error) {
	for len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
	}
	return toks, nil
}
