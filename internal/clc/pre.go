package clc

import (
	"fmt"
	"strings"
)

// Macro is a preprocessor macro definition.
type Macro struct {
	Name     string
	Params   []string // nil for object-like macros
	IsFunc   bool
	Body     []Token
	Builtin  bool
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

// Process expands the source text and returns the preprocessed text. Line
// structure is preserved: directives become empty lines so diagnostics in
// later phases keep meaningful line numbers.
func (pp *Preprocessor) Process(file, src string) (string, error) {
	// Splice line continuations.
	src = strings.ReplaceAll(src, "\\\r\n", "\n")
	src = strings.ReplaceAll(src, "\\\n", "\n")
	var err error
	src, err = stripBlockComments(file, src)
	if err != nil {
		return "", err
	}
	lines := strings.Split(src, "\n")

	var out strings.Builder
	// condStack tracks #ifdef nesting; each entry is whether the branch is
	// active and whether any branch in the group has been taken.
	type cond struct{ active, taken, parentActive bool }
	var stack []cond
	active := func() bool {
		for _, c := range stack {
			if !c.active {
				return false
			}
		}
		return true
	}

	for i, line := range lines {
		lineNo := i + 1
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			dir := strings.TrimSpace(trimmed[1:])
			word := dir
			rest := ""
			if idx := strings.IndexAny(dir, " \t("); idx >= 0 {
				word = dir[:idx]
				rest = strings.TrimSpace(dir[idx:])
				if strings.HasPrefix(dir[idx:], "(") {
					// function-like define written as "#define F(x) ..." with
					// no space: word captured correctly above only when the
					// split is on '('; rejoin for defines below.
					rest = dir[idx:]
				}
			}
			switch word {
			case "define":
				if active() {
					if err := pp.define(file, lineNo, rest); err != nil {
						return "", err
					}
				}
			case "undef":
				if active() {
					delete(pp.macros, strings.TrimSpace(rest))
				}
			case "ifdef":
				name := strings.TrimSpace(rest)
				on := pp.macros[name] != nil
				stack = append(stack, cond{active: on, taken: on, parentActive: active()})
			case "ifndef":
				name := strings.TrimSpace(rest)
				on := pp.macros[name] == nil
				stack = append(stack, cond{active: on, taken: on, parentActive: active()})
			case "if":
				on := false
				if active() {
					v, err := pp.evalCondition(file, lineNo, rest)
					if err != nil {
						return "", err
					}
					on = v != 0
				}
				stack = append(stack, cond{active: on, taken: on, parentActive: active()})
			case "elif":
				if len(stack) == 0 {
					return "", errf(Pos{File: file, Line: lineNo, Col: 1}, "#elif without #if")
				}
				top := &stack[len(stack)-1]
				if top.taken {
					top.active = false
				} else {
					v, err := pp.evalCondition(file, lineNo, rest)
					if err != nil {
						return "", err
					}
					top.active = v != 0
					top.taken = top.active
				}
			case "else":
				if len(stack) == 0 {
					return "", errf(Pos{File: file, Line: lineNo, Col: 1}, "#else without #ifdef")
				}
				top := &stack[len(stack)-1]
				top.active = !top.taken
				top.taken = true
			case "endif":
				if len(stack) == 0 {
					return "", errf(Pos{File: file, Line: lineNo, Col: 1}, "#endif without #ifdef")
				}
				stack = stack[:len(stack)-1]
			case "pragma", "line":
				// dropped
			case "include":
				return "", errf(Pos{File: file, Line: lineNo, Col: 1}, "#include is not supported; kernels must be self-contained")
			default:
				return "", errf(Pos{File: file, Line: lineNo, Col: 1}, "unknown directive #%s", word)
			}
			out.WriteString("\n")
			continue
		}
		if !active() {
			out.WriteString("\n")
			continue
		}
		expanded, err := pp.expandLine(file, lineNo, line)
		if err != nil {
			return "", err
		}
		out.WriteString(expanded)
		out.WriteString("\n")
	}
	if len(stack) != 0 {
		return "", errf(Pos{File: file, Line: len(lines), Col: 1}, "unterminated #ifdef")
	}
	return out.String(), nil
}

// define parses the remainder of a #define directive.
func (pp *Preprocessor) define(file string, lineNo int, rest string) error {
	pos := Pos{File: file, Line: lineNo, Col: 1}
	toks, err := LexAll(file, rest)
	if err != nil {
		return err
	}
	if len(toks) == 0 || toks[0].Kind != TokIdent && toks[0].Kind != TokKeyword {
		return errf(pos, "#define requires a macro name")
	}
	name := toks[0].Text
	m := &Macro{Name: name}
	idx := 1
	// Function-like only when '(' immediately follows the name in the raw
	// text (no whitespace). We approximate: the '(' token directly follows
	// and rest has "name(" as a prefix.
	if idx < len(toks) && toks[idx].Is("(") && strings.HasPrefix(strings.TrimSpace(rest), name+"(") {
		m.IsFunc = true
		m.Params = []string{}
		idx++
		for {
			if idx >= len(toks) {
				return errf(pos, "unterminated macro parameter list")
			}
			if toks[idx].Is(")") {
				idx++
				break
			}
			if toks[idx].Kind != TokIdent {
				return errf(pos, "bad macro parameter %q", toks[idx].Text)
			}
			m.Params = append(m.Params, toks[idx].Text)
			idx++
			if idx < len(toks) && toks[idx].Is(",") {
				idx++
			}
		}
	}
	body := toks[idx:]
	if len(body) > 0 && body[len(body)-1].Kind == TokEOF {
		body = body[:len(body)-1]
	}
	m.Body = body
	pp.macros[name] = m
	return nil
}

// expandLine macro-expands one source line.
func (pp *Preprocessor) expandLine(file string, lineNo int, line string) (string, error) {
	toks, err := LexAll(file, line)
	if err != nil {
		return "", err
	}
	toks = toks[:len(toks)-1] // drop EOF
	expanded, err := pp.expandTokens(toks, 0)
	if err != nil {
		return "", err
	}
	return renderTokens(expanded), nil
}

const maxExpandDepth = 64

// expandTokens performs macro substitution over a token slice.
func (pp *Preprocessor) expandTokens(toks []Token, depth int) ([]Token, error) {
	if depth > maxExpandDepth {
		return nil, fmt.Errorf("clc: macro expansion too deep (recursive macro?)")
	}
	var out []Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind != TokIdent {
			out = append(out, t)
			continue
		}
		m := pp.macros[t.Text]
		if m == nil || m.Expanded {
			out = append(out, t)
			continue
		}
		if !m.IsFunc {
			m.Expanded = true
			sub, err := pp.expandTokens(m.Body, depth+1)
			m.Expanded = false
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
			continue
		}
		// Function-like: require '(' as the next token, else leave as-is.
		if i+1 >= len(toks) || !toks[i+1].Is("(") {
			out = append(out, t)
			continue
		}
		args, next, err := splitMacroArgs(toks, i+1)
		if err != nil {
			return nil, err
		}
		if len(args) != len(m.Params) && !(len(m.Params) == 0 && len(args) == 1 && len(args[0]) == 0) {
			return nil, errf(t.Pos, "macro %s expects %d arguments, got %d", m.Name, len(m.Params), len(args))
		}
		// Pre-expand the arguments.
		argMap := map[string][]Token{}
		for pi, p := range m.Params {
			ea, err := pp.expandTokens(args[pi], depth+1)
			if err != nil {
				return nil, err
			}
			argMap[p] = ea
		}
		var body []Token
		for _, bt := range m.Body {
			if bt.Kind == TokIdent {
				if rep, ok := argMap[bt.Text]; ok {
					body = append(body, rep...)
					continue
				}
			}
			body = append(body, bt)
		}
		m.Expanded = true
		sub, err := pp.expandTokens(body, depth+1)
		m.Expanded = false
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
		i = next - 1
	}
	return out, nil
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

// renderTokens turns tokens back into source text with separating spaces.
func renderTokens(toks []Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch t.Kind {
		case TokStringLit:
			sb.WriteString(fmt.Sprintf("%q", t.Text))
		case TokCharLit:
			sb.WriteString("'" + t.Text + "'")
		default:
			sb.WriteString(t.Text)
		}
	}
	return sb.String()
}

// stripBlockComments blanks /* ... */ comments (which may span lines,
// unlike the line-oriented directive scanner) while preserving newlines so
// diagnostics keep their positions. String literals are respected.
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
			quote := c
			i++
			for i < len(out) && out[i] != quote {
				if out[i] == '\\' {
					i++
				}
				if i < len(out) && out[i] == '\n' {
					line++
				}
				i++
			}
			i++
		case c == '/' && i+1 < len(out) && out[i+1] == '/':
			for i < len(out) && out[i] != '\n' {
				out[i] = ' '
				i++
			}
		case c == '/' && i+1 < len(out) && out[i+1] == '*':
			start := line
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
				return "", errf(Pos{File: file, Line: start, Col: 1}, "unterminated block comment")
			}
		default:
			i++
		}
	}
	return string(out), nil
}

// evalCondition evaluates a #if/#elif controlling expression: defined()
// is resolved first, macros are expanded, any remaining identifiers become
// 0 (the C rule), and the result is folded as an integer constant.
func (pp *Preprocessor) evalCondition(file string, lineNo int, rest string) (int64, error) {
	pos := Pos{File: file, Line: lineNo, Col: 1}
	toks, err := LexAll(file, rest)
	if err != nil {
		return 0, err
	}
	toks = toks[:len(toks)-1]
	// Resolve defined(NAME) / defined NAME before macro expansion.
	var resolved []Token
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokIdent && t.Text == "defined" {
			j := i + 1
			paren := false
			if j < len(toks) && toks[j].Is("(") {
				paren = true
				j++
			}
			if j >= len(toks) || (toks[j].Kind != TokIdent && toks[j].Kind != TokKeyword) {
				return 0, errf(pos, "defined requires a macro name")
			}
			name := toks[j].Text
			j++
			if paren {
				if j >= len(toks) || !toks[j].Is(")") {
					return 0, errf(pos, "unbalanced defined(...)")
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
	expanded, err := pp.expandTokens(resolved, 0)
	if err != nil {
		return 0, err
	}
	// Unknown identifiers evaluate to 0 per the C standard.
	for i, t := range expanded {
		if t.Kind == TokIdent {
			expanded[i] = Token{Kind: TokIntLit, Text: "0", Pos: t.Pos}
		}
	}
	expanded = append(expanded, Token{Kind: TokEOF, Pos: pos})
	p := &Parser{toks: expanded, file: file, pp: true}
	e, err := p.parseCondExpr()
	if err != nil {
		return 0, err
	}
	if !p.cur().Is("") && p.cur().Kind != TokEOF {
		return 0, errf(pos, "trailing tokens in #if condition")
	}
	v, _, err := constFolder{pp: true}.fold(e)
	if err != nil {
		return 0, errf(pos, "#if condition is not constant: %v", err)
	}
	return v, nil
}
