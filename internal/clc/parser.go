package clc

import (
	"context"
	"math"
	"strconv"
	"strings"

	"grover/internal/telemetry"
)

// Parser builds an AST from a token stream.
type Parser struct {
	toks []Token
	pos  int
	file string
	pp   bool // parsing an #if condition: literals are long or ulong
}

// Parse preprocesses (lexing as it goes), parses and semantically analyzes
// an OpenCL C source string, returning the typed AST. defines are
// predefined macros (may be nil).
func Parse(file, src string, defines map[string]string) (*File, error) {
	return ParseCtx(context.Background(), file, src, defines)
}

// ParseCtx is Parse with per-stage span recording when ctx carries a
// telemetry trace (clc.pre, clc.parse, clc.sema). The parser reads the
// preprocessor's tokens, which carry their source positions.
func ParseCtx(ctx context.Context, file, src string, defines map[string]string) (*File, error) {
	all := PredefinedMacros()
	for k, v := range defines {
		all[k] = v
	}
	end := telemetry.StartSpan(ctx, "clc.pre")
	pp, err := NewPreprocessor(all)
	var toks []Token
	if err == nil {
		toks, err = pp.Process(file, src)
	}
	end()
	if err != nil {
		return nil, err
	}
	end = telemetry.StartSpan(ctx, "clc.parse")
	p := &Parser{toks: toks, file: file}
	f, err := p.parseFile()
	end()
	if err != nil {
		return nil, err
	}
	end = telemetry.StartSpan(ctx, "clc.sema")
	err = Analyze(f)
	end()
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) peekN(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) accept(text string) bool {
	if p.cur().Is(text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(text string) (Token, error) {
	t := p.cur()
	if !t.Is(text) {
		return t, errf(t.Pos, "expected %q, found %q", text, t.String())
	}
	p.pos++
	return t, nil
}

// ---------------------------------------------------------------- file

func (p *Parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for p.cur().Kind != TokEOF {
		// Skip stray semicolons at top level.
		if p.accept(";") {
			continue
		}
		fn, err := p.parseFuncDecl()
		if err != nil {
			return nil, err
		}
		f.Funcs = append(f.Funcs, fn)
	}
	return f, nil
}

func (p *Parser) parseFuncDecl() (*FuncDecl, error) {
	start := p.cur().Pos
	isKernel := false
	// Leading qualifiers: __kernel, kernel, static, inline, attributes.
	for {
		t := p.cur()
		if t.Is("__kernel") || t.Is("kernel") {
			isKernel = true
			p.pos++
			continue
		}
		if t.Is("static") || t.Is("inline") || t.Is("extern") {
			p.pos++
			continue
		}
		if t.Is("__attribute__") {
			p.pos++
			if err := p.skipParens(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	ret, _, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.Kind != TokIdent {
		return nil, errf(nameTok.Pos, "expected function name, found %q", nameTok.String())
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var params []*ParamDecl
	if !p.accept(")") {
		for {
			prm, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			params = append(params, prm)
			if p.accept(",") {
				continue
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	// Trailing attributes (e.g. reqd_work_group_size).
	for p.cur().Is("__attribute__") {
		p.pos++
		if err := p.skipParens(); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Pos: start, Name: nameTok.Text, IsKernel: isKernel, Ret: ret, Params: params, Body: body}, nil
}

func (p *Parser) skipParens() error {
	if _, err := p.expect("("); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		t := p.next()
		if t.Kind == TokEOF {
			return errf(t.Pos, "unterminated parenthesized group")
		}
		if t.Is("(") {
			depth++
		}
		if t.Is(")") {
			depth--
		}
	}
	return nil
}

func (p *Parser) parseParam() (*ParamDecl, error) {
	start := p.cur().Pos
	typ, space, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	// Pointer declarators + qualifiers.
	for p.cur().Is("*") {
		p.pos++
		typ = &PointerType{Elem: typ, Space: space}
		for p.cur().Is("const") || p.cur().Is("restrict") || p.cur().Is("volatile") {
			p.pos++
		}
	}
	name := ""
	if p.cur().Kind == TokIdent {
		name = p.next().Text
	}
	// Array parameter "T a[]" decays to pointer.
	for p.cur().Is("[") {
		p.pos++
		if p.cur().Kind == TokIntLit {
			p.pos++
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		typ = &PointerType{Elem: typ, Space: space}
	}
	return &ParamDecl{Pos: start, Name: name, Type: typ, Space: space}, nil
}

// parseTypeSpec parses qualifiers and a type name. It returns the base type
// and the address space given by qualifiers (for the pointee of subsequent
// '*' declarators, or for the variable itself for array declarations).
func (p *Parser) parseTypeSpec() (Type, AddrSpace, error) {
	space := ASPrivate
	sawSpace := false
	var unsigned, signed bool
	for {
		t := p.cur()
		switch {
		case t.Is("__global") || t.Is("global"):
			space, sawSpace = ASGlobal, true
			p.pos++
			continue
		case t.Is("__local") || t.Is("local"):
			space, sawSpace = ASLocal, true
			p.pos++
			continue
		case t.Is("__constant") || t.Is("constant"):
			space, sawSpace = ASConstant, true
			p.pos++
			continue
		case t.Is("__private") || t.Is("private"):
			space, sawSpace = ASPrivate, true
			p.pos++
			continue
		case t.Is("const") || t.Is("volatile") || t.Is("restrict") ||
			t.Is("__read_only") || t.Is("__write_only"):
			p.pos++
			continue
		case t.Is("unsigned"):
			unsigned = true
			p.pos++
			continue
		case t.Is("signed"):
			signed = true
			p.pos++
			continue
		}
		break
	}
	_ = sawSpace
	_ = signed
	t := p.cur()
	var base Type
	switch {
	case t.Kind == TokKeyword || t.Kind == TokIdent:
		name := t.Text
		if lt := LookupNamedType(name); lt != nil {
			base = lt
			p.pos++
			// "long long", "unsigned long" etc.
			if name == "long" && p.cur().Is("long") {
				p.pos++
			}
			if name == "long" && p.cur().Is("int") {
				p.pos++
			}
			if name == "short" && p.cur().Is("int") {
				p.pos++
			}
		} else if unsigned {
			base = TypeUInt
		} else {
			return nil, space, errf(t.Pos, "expected type name, found %q", t.String())
		}
	default:
		if unsigned {
			base = TypeUInt
		} else {
			return nil, space, errf(t.Pos, "expected type name, found %q", t.String())
		}
	}
	if unsigned {
		if s, ok := base.(*ScalarType); ok {
			switch s.Kind {
			case KChar:
				base = TypeUChar
			case KShort:
				base = TypeUShort
			case KInt:
				base = TypeUInt
			case KLong:
				base = TypeULong
			}
		}
	}
	// Trailing qualifiers after the type name: "float const * restrict".
	for p.cur().Is("const") || p.cur().Is("volatile") || p.cur().Is("restrict") {
		p.pos++
	}
	return base, space, nil
}

// startsType reports whether the token sequence at the cursor begins a type
// (used to disambiguate declarations from expressions and casts from
// parenthesized expressions).
func (p *Parser) startsType() bool {
	t := p.cur()
	switch {
	case t.Is("__global") || t.Is("global") || t.Is("__local") || t.Is("local") ||
		t.Is("__constant") || t.Is("constant") || t.Is("__private") || t.Is("private") ||
		t.Is("const") || t.Is("volatile") || t.Is("restrict") ||
		t.Is("unsigned") || t.Is("signed"):
		return true
	case t.Kind == TokKeyword || t.Kind == TokIdent:
		return IsTypeName(t.Text)
	}
	return false
}

// ---------------------------------------------------------------- stmts

func (p *Parser) parseBlock() (*BlockStmt, error) {
	open, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: open.Pos}
	for !p.cur().Is("}") {
		if p.cur().Kind == TokEOF {
			return nil, errf(open.Pos, "unterminated block")
		}
		stmts, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, stmts...)
	}
	p.pos++ // consume '}'
	return blk, nil
}

// parseStmt parses one statement. Declarations with multiple declarators
// expand into multiple DeclStmts, hence the slice result.
func (p *Parser) parseStmt() ([]Stmt, error) {
	t := p.cur()
	switch {
	case t.Is("{"):
		blk, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return []Stmt{blk}, nil

	case t.Is(";"):
		p.pos++
		return nil, nil

	case t.Is("if"):
		p.pos++
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		thenS, err := p.parseStmtSingle()
		if err != nil {
			return nil, err
		}
		var elseS Stmt
		if p.accept("else") {
			elseS, err = p.parseStmtSingle()
			if err != nil {
				return nil, err
			}
		}
		return []Stmt{&IfStmt{Pos: t.Pos, Cond: cond, Then: thenS, Else: elseS}}, nil

	case t.Is("for"):
		p.pos++
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		var initS Stmt
		if !p.cur().Is(";") {
			if p.startsType() {
				decls, err := p.parseDecl()
				if err != nil {
					return nil, err
				}
				if len(decls) == 1 {
					initS = decls[0]
				} else {
					initS = &BlockStmt{Pos: t.Pos, Stmts: decls}
				}
				// parseDecl consumed the ';'
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				initS = &ExprStmt{Pos: e.NodePos(), X: e}
				if _, err := p.expect(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.pos++
		}
		var cond Expr
		var err error
		if !p.cur().Is(";") {
			cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		var post Expr
		if !p.cur().Is(")") {
			post, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmtSingle()
		if err != nil {
			return nil, err
		}
		return []Stmt{&ForStmt{Pos: t.Pos, Init: initS, Cond: cond, Post: post, Body: body}}, nil

	case t.Is("while"):
		p.pos++
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmtSingle()
		if err != nil {
			return nil, err
		}
		return []Stmt{&WhileStmt{Pos: t.Pos, Cond: cond, Body: body}}, nil

	case t.Is("do"):
		p.pos++
		body, err := p.parseStmtSingle()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("while"); err != nil {
			return nil, err
		}
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return []Stmt{&WhileStmt{Pos: t.Pos, Cond: cond, Body: body, DoWhile: true}}, nil

	case t.Is("return"):
		p.pos++
		var x Expr
		var err error
		if !p.cur().Is(";") {
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return []Stmt{&ReturnStmt{Pos: t.Pos, X: x}}, nil

	case t.Is("break"):
		p.pos++
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return []Stmt{&BreakStmt{Pos: t.Pos}}, nil

	case t.Is("continue"):
		p.pos++
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return []Stmt{&ContinueStmt{Pos: t.Pos}}, nil

	case p.startsType():
		return p.parseDecl()
	}

	// Expression statement.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return []Stmt{&ExprStmt{Pos: e.NodePos(), X: e}}, nil
}

// parseStmtSingle parses a statement that must be exactly one Stmt (loop or
// if bodies); multi-declarator declarations are wrapped in a block.
func (p *Parser) parseStmtSingle() (Stmt, error) {
	pos := p.cur().Pos
	ss, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	switch len(ss) {
	case 0:
		return &BlockStmt{Pos: pos}, nil
	case 1:
		return ss[0], nil
	default:
		return &BlockStmt{Pos: pos, Stmts: ss}, nil
	}
}

// parseDecl parses a local variable declaration (consuming the trailing
// ';'), expanding multiple declarators into separate DeclStmts.
func (p *Parser) parseDecl() ([]Stmt, error) {
	start := p.cur().Pos
	base, space, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	var out []Stmt
	for {
		typ := base
		for p.cur().Is("*") {
			p.pos++
			typ = &PointerType{Elem: typ, Space: space}
			for p.cur().Is("const") || p.cur().Is("restrict") || p.cur().Is("volatile") {
				p.pos++
			}
		}
		nameTok := p.next()
		if nameTok.Kind != TokIdent {
			return nil, errf(nameTok.Pos, "expected variable name, found %q", nameTok.String())
		}
		// Array dimensions (innermost last); sizes are integer constant
		// expressions such as S*S or (TILE+2).
		var dims []int
		bytes := int64(max(typ.Size(), 1))
		for p.accept("[") {
			szPos := p.cur().Pos
			szExpr, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			n, st, err := constFolder{}.fold(szExpr)
			if err != nil {
				return nil, errf(szPos, "array size must be an integer constant expression: %v", err)
			}
			if n == 0 || n < 0 && !st.Kind.IsUnsigned() {
				return nil, errf(szPos, "array size must be positive, got %d", n)
			}
			if n < 0 || n > MaxObjectBytes/bytes {
				return nil, errf(szPos, "array %s exceeds the %d-byte limit", nameTok.Text, MaxObjectBytes)
			}
			bytes *= n
			dims = append(dims, int(n))
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		for i := len(dims) - 1; i >= 0; i-- {
			typ = &ArrayType{Elem: typ, Len: dims[i]}
		}
		var init Expr
		if p.accept("=") {
			init, err = p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
		}
		out = append(out, &DeclStmt{Pos: start, Name: nameTok.Text, Type: typ, Space: space, Init: init})
		if p.accept(",") {
			continue
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// ---------------------------------------------------------------- exprs

// parseExpr parses a full expression including the comma operator? The
// subset does not support the comma operator; parseExpr is assignment-level.
func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	l, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.pos++
		r, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		a := &Assign{Op: t.Text, L: l, R: r}
		a.Pos = t.Pos
		return a, nil
	}
	return l, nil
}

func (p *Parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.cur().Is("?") {
		qt := p.next()
		tx, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(":"); err != nil {
			return nil, err
		}
		fx, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		e := &Cond{C: c, T: tx, F: fx}
		e.Pos = qt.Pos
		return e, nil
	}
	return c, nil
}

// binary operator precedence (C), higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinaryExpr(minPrec int) (Expr, error) {
	l, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return l, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return l, nil
		}
		p.pos++
		r, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		b := &Binary{Op: t.Text, L: l, R: r}
		b.Pos = t.Pos
		l = b
	}
}

func (p *Parser) parseUnaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.Is("+") || t.Is("-") || t.Is("!") || t.Is("~") || t.Is("*") || t.Is("&"):
		p.pos++
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		u := &Unary{Op: t.Text, X: x}
		u.Pos = t.Pos
		return u, nil
	case t.Is("++") || t.Is("--"):
		p.pos++
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		u := &Unary{Op: t.Text, X: x}
		u.Pos = t.Pos
		return u, nil
	case t.Is("sizeof"):
		// sizeof ( type-name ), or sizeof unary-expression: a parenthesized
		// expression is one.
		p.pos++
		e := &SizeofExpr{}
		e.Pos = t.Pos
		if !p.isCastAhead() {
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			e.X = x
			return e, nil
		}
		p.pos++
		typ, _, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for p.cur().Is("*") {
			p.pos++
			typ = &PointerType{Elem: typ}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		e.Of = typ
		return e, nil
	case t.Is("("):
		// Cast or parenthesized expression.
		if p.isCastAhead() {
			p.pos++
			typ, _, err := p.parseTypeSpec()
			if err != nil {
				return nil, err
			}
			for p.cur().Is("*") {
				p.pos++
				typ = &PointerType{Elem: typ}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			// Vector literal: (float4)(a, b, c, d).
			if vt, ok := typ.(*VectorType); ok && p.cur().Is("(") {
				p.pos++
				var elems []Expr
				for {
					e, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					elems = append(elems, e)
					if p.accept(",") {
						continue
					}
					if _, err := p.expect(")"); err != nil {
						return nil, err
					}
					break
				}
				v := &VecLit{To: vt, Elems: elems}
				v.Pos = t.Pos
				return v, nil
			}
			x, err := p.parseUnaryExpr()
			if err != nil {
				return nil, err
			}
			c := &Cast{To: typ, X: x}
			c.Pos = t.Pos
			return c, nil
		}
	}
	return p.parsePostfixExpr()
}

// isCastAhead reports whether the cursor (at '(') begins a cast expression.
func (p *Parser) isCastAhead() bool {
	if !p.cur().Is("(") {
		return false
	}
	save := p.pos
	defer func() { p.pos = save }()
	p.pos++
	if !p.startsType() {
		return false
	}
	// Consume the type spec tokens tentatively.
	if _, _, err := p.parseTypeSpec(); err != nil {
		return false
	}
	for p.cur().Is("*") {
		p.pos++
	}
	return p.cur().Is(")")
}

func (p *Parser) parsePostfixExpr() (Expr, error) {
	x, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case t.Is("["):
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			e := &Index{X: x, I: idx}
			e.Pos = t.Pos
			x = e
		case t.Is("."):
			p.pos++
			nm := p.next()
			if nm.Kind != TokIdent && nm.Kind != TokKeyword {
				return nil, errf(nm.Pos, "expected member name, found %q", nm.String())
			}
			e := &Member{X: x, Name: nm.Text}
			e.Pos = t.Pos
			x = e
		case t.Is("++") || t.Is("--"):
			p.pos++
			e := &Postfix{Op: t.Text, X: x}
			e.Pos = t.Pos
			x = e
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokIntLit:
		p.pos++
		text := strings.TrimRight(t.Text, "uUlL")
		v, err := strconv.ParseUint(text, 0, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad integer literal %q", t.Text)
		}
		e := &IntLit{Value: int64(v)}
		e.Pos = t.Pos
		e.Typ = p.intLitType(v, text, t.Text[len(text):])
		return e, nil
	case TokFloatLit:
		p.pos++
		text := strings.TrimRight(t.Text, "fF")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float literal %q", t.Text)
		}
		e := &FloatLit{Value: v}
		e.Pos = t.Pos
		return e, nil
	case TokCharLit:
		p.pos++
		e := &IntLit{Value: int64(t.Text[0])}
		e.Pos = t.Pos
		e.Typ = TypeInt
		return e, nil
	case TokStringLit:
		p.pos++
		e := &StringLit{Value: t.Text}
		e.Pos = t.Pos
		return e, nil
	case TokIdent:
		// Call?
		if p.peekN(1).Is("(") {
			name := t.Text
			p.pos += 2
			var args []Expr
			if !p.accept(")") {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.accept(",") {
						continue
					}
					if _, err := p.expect(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			c := &Call{FuncName: name, Args: args}
			c.Pos = t.Pos
			return c, nil
		}
		p.pos++
		e := &Ident{Name: t.Text}
		e.Pos = t.Pos
		return e, nil
	}
	if t.Is("(") {
		p.pos++
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, errf(t.Pos, "unexpected token %q in expression", t.String())
}

// intLitType types an integer literal from its digits, suffix and value as
// C99 §6.4.4.1 does, which OpenCL C 1.2 §6.1 inherits with long as the only
// 64-bit type: the first of int, long that holds a decimal value, the
// first of int, uint, long, ulong that holds an octal or hex one; a u
// suffix keeps only the unsigned types and an l suffix drops int and uint.
// A decimal too large for long is a ulong, as compilers extend the table.
// In an #if condition every literal is long, or ulong when it is suffixed
// u or too large for long (C99 §6.10.1p4).
func (p *Parser) intLitType(v uint64, digits, suffix string) *ScalarType {
	u := strings.ContainsAny(suffix, "uU")
	l := p.pp || strings.ContainsAny(suffix, "lL")
	decimal := digits == "0" || digits[0] != '0'
	switch {
	case !u && !l && v <= math.MaxInt32:
		return TypeInt
	case !l && (u || !decimal) && v <= math.MaxUint32:
		return TypeUInt
	case !u && v <= math.MaxInt64:
		return TypeLong
	}
	return TypeULong
}
