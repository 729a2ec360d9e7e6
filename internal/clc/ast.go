package clc

// This file defines the abstract syntax tree produced by the parser. Types
// on expression nodes are filled in by the semantic analyzer (sema.go).

// Node is implemented by all AST nodes.
type Node interface {
	NodePos() Pos
}

// ---------------------------------------------------------------- program

// File is a parsed translation unit.
type File struct {
	Name  string
	Funcs []*FuncDecl
}

// ParamDecl is a function parameter declaration.
type ParamDecl struct {
	Pos   Pos
	Name  string
	Type  Type
	Space AddrSpace // address space of the pointee for pointer params
}

// NodePos returns the declaration position.
func (d *ParamDecl) NodePos() Pos { return d.Pos }

// FuncDecl is a function definition. Kernel functions carry IsKernel.
type FuncDecl struct {
	Pos      Pos
	Name     string
	IsKernel bool
	Ret      Type
	Params   []*ParamDecl
	Body     *BlockStmt
}

// NodePos returns the declaration position.
func (d *FuncDecl) NodePos() Pos { return d.Pos }

// -------------------------------------------------------------- statements

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a braced statement list.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt declares one local variable (multi-declarator declarations are
// split by the parser). Local arrays in __local address space are the
// local-memory candidates Grover analyzes.
type DeclStmt struct {
	Pos   Pos
	Name  string
	Type  Type
	Space AddrSpace
	Init  Expr // may be nil
	// Sym is resolved by sema.
	Sym *Symbol
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is a C for loop; Init/Cond/Post may each be nil. Init is either a
// *DeclStmt or *ExprStmt.
type ForStmt struct {
	Pos  Pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// WhileStmt is a while loop; DoWhile marks do { } while(cond);.
type WhileStmt struct {
	Pos     Pos
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// ReturnStmt returns from the function; X may be nil.
type ReturnStmt struct {
	Pos Pos
	X   Expr
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

func (s *BlockStmt) NodePos() Pos    { return s.Pos }
func (s *DeclStmt) NodePos() Pos     { return s.Pos }
func (s *ExprStmt) NodePos() Pos     { return s.Pos }
func (s *IfStmt) NodePos() Pos       { return s.Pos }
func (s *ForStmt) NodePos() Pos      { return s.Pos }
func (s *WhileStmt) NodePos() Pos    { return s.Pos }
func (s *ReturnStmt) NodePos() Pos   { return s.Pos }
func (s *BreakStmt) NodePos() Pos    { return s.Pos }
func (s *ContinueStmt) NodePos() Pos { return s.Pos }

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// ------------------------------------------------------------- expressions

// Expr is implemented by all expression nodes. ExprType returns the type
// resolved by sema (nil before analysis).
type Expr interface {
	Node
	ExprType() Type
	exprNode()
}

type exprBase struct {
	Pos Pos
	Typ Type
}

// NodePos returns the expression position.
func (e *exprBase) NodePos() Pos { return e.Pos }

// ExprType returns the semantic type of the expression.
func (e *exprBase) ExprType() Type { return e.Typ }
func (e *exprBase) exprNode()      {}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Value float64
}

// StringLit is a string literal (only valid as __constant char* init /
// argument in this subset).
type StringLit struct {
	exprBase
	Value string
}

// Ident is a reference to a declared name; Sym is resolved by sema.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
}

// Unary is a prefix unary expression: -x !x ~x +x *p &x ++x --x.
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	exprBase
	Op string
	X  Expr
}

// Binary is a binary expression (arithmetic, comparison, logical, shifts).
type Binary struct {
	exprBase
	Op   string
	L, R Expr
}

// Assign is an assignment or compound assignment ("=", "+=", ...).
type Assign struct {
	exprBase
	Op   string
	L, R Expr
}

// Cond is the ternary conditional operator.
type Cond struct {
	exprBase
	C, T, F Expr
}

// Index is array/pointer subscripting: X[I].
type Index struct {
	exprBase
	X, I Expr
}

// Member is vector component selection (swizzle): X.s or X.xyz.
type Member struct {
	exprBase
	X    Expr
	Name string
	// Comps is the resolved component index list, filled by sema.
	Comps []int
}

// Call is a function or builtin call.
type Call struct {
	exprBase
	FuncName string
	Args     []Expr
	// Builtin is the resolved builtin descriptor, nil for user functions.
	Builtin *Builtin
	// Callee is the resolved user function, nil for builtins.
	Callee *FuncDecl
}

// Cast is an explicit C-style cast, including vector literal construction
// "(float4)(a,b,c,d)" which the parser represents as a VecLit.
type Cast struct {
	exprBase
	To Type
	X  Expr
}

// VecLit is an OpenCL vector literal: (float4)(x, y, z, w).
type VecLit struct {
	exprBase
	To    *VectorType
	Elems []Expr
}

// SizeofExpr is sizeof(type), or sizeof of an expression X, whose type
// sema puts in Of. X is never evaluated.
type SizeofExpr struct {
	exprBase
	Of Type
	X  Expr
}

// Symbol is a resolved declaration: a parameter or local variable.
type Symbol struct {
	Name  string
	Type  Type
	Space AddrSpace
	Param bool // declared as a function parameter
	Index int  // parameter index when Param
	Pos   Pos
}
