package clc

import (
	"fmt"
	"strings"
)

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	Body     []Token
	Expanded bool // cycle guard during expansion
}

// Preprocessor implements the subset of the C preprocessor the benchmark
// kernels need: object-like and function-like #define, #undef, the full
// conditional family (#if/#elif with constant expressions and defined(),
// #ifdef/#ifndef/#else/#endif), block comments, and line continuations.
// #include is rejected (kernel sources in this repository are
// self-contained), and #pragma lines are dropped.
type Preprocessor struct {
	macros map[string]*Macro
	// expanded counts the replacement tokens the current source's macro
	// uses have produced, against limit (expansionLimit of the source);
	// use is the source position of the outermost use being expanded.
	expanded, limit int
	use             Pos
}

// NewPreprocessor returns a preprocessor with the given predefined
// object-like macros (name → replacement text).
func NewPreprocessor(defines map[string]string) (*Preprocessor, error) {
	pp := &Preprocessor{macros: make(map[string]*Macro)}
	for name, val := range defines {
		toks, err := LexAll("<define>", val)
		if err != nil {
			return nil, fmt.Errorf("predefined macro %s: %w", name, err)
		}
		pp.macros[name] = &Macro{Name: name, Body: toks[:len(toks)-1]}
	}
	return pp, nil
}

// Process lexes and macro-expands the source and returns its tokens,
// terminated by a TokEOF token at the end of the source. Each token
// carries its own source position, and each token of a macro expansion
// the position of the macro name it replaces. The source is lexed one
// logical line at a time, a line continuation (backslash-newline) being
// blank space. In a group a conditional directive skips, only a line's
// first token is read: the conditional directives count, for nesting,
// and nothing else does (C99 §6.10.1p6).
func (pp *Preprocessor) Process(file, src string) ([]Token, error) {
	pp.expanded, pp.limit = 0, expansionLimit(len(src))
	src, err := stripBlockComments(file, src)
	if err != nil {
		return nil, err
	}
	// stack holds the open conditional groups: whether the current
	// branch's lines are processed (it and every enclosing branch are
	// taken), and whether a later branch can no longer be taken.
	type cond struct {
		pos           Pos
		active, taken bool
	}
	var stack []cond
	active := func() bool { return len(stack) == 0 || stack[len(stack)-1].active }
	out := make([]Token, 0, len(src)/4)
	var line []Token
	lineNo := 1
	for off := 0; off <= len(src); {
		end := lineEnd(src, off)
		lx := &Lexer{src: src[off:end], file: file, line: lineNo, col: 1}
		lineNo += 1 + strings.Count(src[off:end], "\n")
		off = end + 1
		first, err := lx.Next()
		if err != nil || !first.Is("#") {
			if !active() {
				continue
			}
			if err == nil {
				line, err = lexLine(append(line[:0], first), lx)
			}
			if err == nil {
				out, err = pp.expand(out, line[:len(line)-1], 0)
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		name, err := lx.Next()
		parent := active()
		if !parent && (err != nil || !conditional(name.Text)) {
			continue
		}
		if err != nil {
			return nil, err
		}
		switch name.Text {
		case "define":
			toks, err := lexLine(nil, lx)
			if err == nil {
				err = pp.define(first.Pos, toks)
			}
			if err != nil {
				return nil, err
			}
		case "undef":
			t, err := lx.Next()
			if err != nil {
				return nil, err
			}
			delete(pp.macros, t.Text)
		case "if", "ifdef", "ifndef":
			on := parent
			if on && name.Text == "if" {
				v, err := pp.evalCondition(first.Pos, lx)
				if err != nil {
					return nil, err
				}
				on = v != 0
			} else if on {
				t, err := lx.Next()
				if err != nil {
					return nil, err
				}
				on = (pp.macros[t.Text] != nil) == (name.Text == "ifdef")
			}
			// Under a skipped branch no branch of the group is taken.
			stack = append(stack, cond{pos: first.Pos, active: on, taken: on || !parent})
		case "elif":
			if len(stack) == 0 {
				return nil, errf(first.Pos, "#elif without #if")
			}
			top := &stack[len(stack)-1]
			if top.taken {
				top.active = false
				break
			}
			v, err := pp.evalCondition(first.Pos, lx)
			if err != nil {
				return nil, err
			}
			top.active = v != 0
			top.taken = top.active
		case "else":
			if len(stack) == 0 {
				return nil, errf(first.Pos, "#else without #ifdef")
			}
			top := &stack[len(stack)-1]
			top.active = !top.taken
			top.taken = true
		case "endif":
			if len(stack) == 0 {
				return nil, errf(first.Pos, "#endif without #ifdef")
			}
			stack = stack[:len(stack)-1]
		case "pragma", "line":
			// dropped
		case "include":
			return nil, errf(first.Pos, "#include is not supported; kernels must be self-contained")
		default:
			return nil, errf(first.Pos, "unknown directive #%s", name.Text)
		}
	}
	if len(stack) != 0 {
		return nil, errf(stack[len(stack)-1].pos, "unterminated #ifdef")
	}
	eof := Pos{File: file, Line: lineNo - 1, Col: len(src) - strings.LastIndexByte(src, '\n')}
	return append(out, Token{Kind: TokEOF, Pos: eof}), nil
}

// conditional reports whether a directive opens, continues or closes a
// conditional group.
func conditional(name string) bool {
	switch name {
	case "if", "ifdef", "ifndef", "elif", "else", "endif":
		return true
	}
	return false
}

// lineEnd returns the index of the newline that ends the logical line
// starting at off, or len(src): a newline right after a backslash is a
// line continuation and does not end it.
func lineEnd(src string, off int) int {
	for {
		i := strings.IndexByte(src[off:], '\n')
		if i < 0 {
			return len(src)
		}
		off += i
		if !strings.HasSuffix(src[:off], "\\") && !strings.HasSuffix(src[:off], "\\\r") {
			return off
		}
		off++
	}
}

// define records the macro of a #define directive from the tokens after
// "define", which end with a TokEOF. The macro is function-like when its
// '(' sits in the column right after the name.
func (pp *Preprocessor) define(pos Pos, toks []Token) error {
	name := toks[0]
	if name.Kind != TokIdent && name.Kind != TokKeyword {
		return errf(pos, "#define requires a macro name")
	}
	m := &Macro{Name: name.Text}
	body := toks[1 : len(toks)-1]
	if open := toks[1]; open.Is("(") && open.Pos.Line == name.Pos.Line && open.Pos.Col == name.Pos.Col+len(name.Text) {
		m.Params = []string{}
		body = body[1:]
		for {
			if len(body) == 0 {
				return errf(open.Pos, "unterminated macro parameter list")
			}
			t := body[0]
			body = body[1:]
			if t.Is(")") {
				break
			}
			if t.Kind != TokIdent {
				return errf(t.Pos, "bad macro parameter %q", t.Text)
			}
			m.Params = append(m.Params, t.Text)
			if len(body) > 0 && body[0].Is(",") {
				body = body[1:]
			}
		}
	}
	m.Body = body
	pp.macros[name.Text] = m
	return nil
}

const maxExpandDepth = 64

// expansionLimit is the most replacement tokens macro uses may produce in
// a source of n bytes: 2^16, or 8 per byte of a larger source. Macros that
// each use the next twice expand exponentially in the source's size (40
// such lines would produce 2^40 tokens); a bound linear in the size refuses
// them and keeps any source whose uses average at most 8 replacement
// tokens per byte, such as thousands of uses of an indexing macro.
func expansionLimit(n int) int {
	return max(1<<16, 8*n)
}

// expand appends toks to dst with every macro use replaced by its
// expansion. The tokens of an expansion take the position of the
// outermost macro name they replace.
func (pp *Preprocessor) expand(dst, toks []Token, depth int) ([]Token, error) {
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		var m *Macro
		if t.Kind == TokIdent {
			m = pp.macros[t.Text]
		}
		// A function-like macro's name not followed by '(' is left as is.
		if m == nil || m.Expanded || m.Params != nil && (i+1 == len(toks) || !toks[i+1].Is("(")) {
			dst = append(dst, t)
			continue
		}
		if depth == maxExpandDepth {
			return nil, errf(t.Pos, "macro expansion too deep (recursive macro?)")
		}
		if depth == 0 {
			pp.use = t.Pos
		}
		body := m.Body
		if m.Params != nil {
			args, next, err := splitMacroArgs(toks, i+1)
			if err != nil {
				return nil, err
			}
			if len(args) != len(m.Params) && !(len(m.Params) == 0 && len(args) == 1 && len(args[0]) == 0) {
				return nil, errf(t.Pos, "macro %s expects %d arguments, got %d", m.Name, len(m.Params), len(args))
			}
			// Pre-expand the arguments.
			argMap := make(map[string][]Token, len(m.Params))
			for pi, p := range m.Params {
				if argMap[p], err = pp.expand(nil, args[pi], depth+1); err != nil {
					return nil, err
				}
			}
			body = nil
			for _, bt := range m.Body {
				if rep, ok := argMap[bt.Text]; ok && bt.Kind == TokIdent {
					body = append(body, rep...)
				} else {
					body = append(body, bt)
				}
			}
			i = next - 1
		}
		if pp.expanded += len(body); pp.expanded > pp.limit {
			return nil, errf(pp.use, "macro expansion produces more than %d tokens", pp.limit)
		}
		start := len(dst)
		var err error
		m.Expanded = true
		dst, err = pp.expand(dst, body, depth+1)
		m.Expanded = false
		if err != nil {
			return nil, err
		}
		// Only the outermost use's position survives, so only its
		// expansion sets one.
		if depth == 0 {
			for k := start; k < len(dst); k++ {
				dst[k].Pos = t.Pos
			}
		}
	}
	return dst, nil
}

// splitMacroArgs parses a parenthesized argument list beginning at
// toks[open] (which must be "("). It returns the comma-separated argument
// token slices (at top nesting level) and the index just past ")".
func splitMacroArgs(toks []Token, open int) ([][]Token, int, error) {
	depth := 0
	var args [][]Token
	var cur []Token
	i := open
	for ; i < len(toks); i++ {
		t := toks[i]
		switch {
		case t.Is("("):
			depth++
			if depth > 1 {
				cur = append(cur, t)
			}
		case t.Is(")"):
			depth--
			if depth == 0 {
				args = append(args, cur)
				return args, i + 1, nil
			}
			cur = append(cur, t)
		case t.Is(",") && depth == 1:
			args = append(args, cur)
			cur = nil
		default:
			cur = append(cur, t)
		}
	}
	return nil, 0, errf(toks[open].Pos, "unterminated macro argument list")
}

// stripBlockComments blanks /* ... */ comments (which may span lines,
// unlike the line-oriented directive scanner) column for column and keeps
// their newlines, so every token keeps its position. String and character
// literals are respected, each up to the end of its line.
func stripBlockComments(file, src string) (string, error) {
	out := []byte(src)
	i := 0
	line := 1
	for i < len(out) {
		c := out[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == '"' || c == '\'':
			// A literal ends at its line's end, as the lexer's does: a quote
			// left open there (an apostrophe in a skipped group's text)
			// must not swallow the lines after it.
			quote := c
			i++
			for i < len(out) && out[i] != quote && out[i] != '\n' {
				if out[i] == '\\' && i+1 < len(out) && out[i+1] != '\n' {
					i++
				}
				i++
			}
			if i < len(out) && out[i] == quote {
				i++
			}
		case c == '/' && i+1 < len(out) && out[i+1] == '/':
			for i < len(out) && out[i] != '\n' {
				out[i] = ' '
				i++
			}
		case c == '/' && i+1 < len(out) && out[i+1] == '*':
			start, startLine := i, line
			closed := false
			for i < len(out) {
				if out[i] == '*' && i+1 < len(out) && out[i+1] == '/' {
					out[i], out[i+1] = ' ', ' '
					i += 2
					closed = true
					break
				}
				if out[i] == '\n' {
					line++
				} else {
					out[i] = ' '
				}
				i++
			}
			if !closed {
				col := start - strings.LastIndexByte(src[:start], '\n')
				return "", errf(Pos{File: file, Line: startLine, Col: col}, "unterminated block comment")
			}
		default:
			i++
		}
	}
	return string(out), nil
}

// evalCondition evaluates the controlling expression of the #if or #elif
// at pos, the rest of lx's line: defined() is resolved first, macros are
// expanded, any remaining identifiers become 0 (the C rule), and the
// result is folded as an integer constant.
func (pp *Preprocessor) evalCondition(pos Pos, lx *Lexer) (int64, error) {
	toks, err := lexLine(nil, lx)
	if err != nil {
		return 0, err
	}
	// Resolve defined(NAME) / defined NAME before macro expansion. toks
	// ends with a TokEOF, which no test below reads past.
	var resolved []Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokIdent && t.Text == "defined" {
			j := i + 1
			paren := toks[j].Is("(")
			if paren {
				j++
			}
			if toks[j].Kind != TokIdent && toks[j].Kind != TokKeyword {
				return 0, errf(t.Pos, "defined requires a macro name")
			}
			name := toks[j].Text
			j++
			if paren {
				if !toks[j].Is(")") {
					return 0, errf(t.Pos, "unbalanced defined(...)")
				}
				j++
			}
			val := "0"
			if pp.macros[name] != nil {
				val = "1"
			}
			resolved = append(resolved, Token{Kind: TokIntLit, Text: val, Pos: t.Pos})
			i = j - 1
			continue
		}
		resolved = append(resolved, t)
	}
	expanded, err := pp.expand(nil, resolved, 0)
	if err != nil {
		return 0, err
	}
	// Unknown identifiers evaluate to 0 per the C standard.
	for i, t := range expanded {
		if t.Kind == TokIdent {
			expanded[i] = Token{Kind: TokIntLit, Text: "0", Pos: t.Pos}
		}
	}
	p := &Parser{toks: expanded, pp: true}
	e, err := p.parseCondExpr()
	if err != nil {
		return 0, err
	}
	if p.cur().Kind != TokEOF {
		return 0, errf(p.cur().Pos, "trailing tokens in #if condition")
	}
	v, _, err := constFolder{pp: true}.fold(e)
	if err != nil {
		return 0, errf(pos, "#if condition is not constant: %v", err)
	}
	return v, nil
}
