package clc

// Builtin describes an OpenCL C builtin function recognized by the
// front-end. Type checking for builtins is structural: the Check function
// receives the (already typed) argument expressions and returns the result
// type.
type Builtin struct {
	Name string
	// Kind classifies the builtin for lowering and execution.
	Kind BuiltinKind
	// Arity is the number of arguments it takes.
	Arity int
	// Check validates argument types and returns the result type.
	Check func(pos Pos, args []Expr) (Type, error)
}

// BuiltinKind classifies builtins.
type BuiltinKind int

// Builtin kinds.
const (
	// BWorkItem are the work-item query functions (get_global_id etc.);
	// these are the symbolic leaves of Grover's index analysis.
	BWorkItem BuiltinKind = iota
	// BBarrier is barrier()/mem_fence().
	BBarrier
	// BMath is a scalar/vector math function.
	BMath
	// BGeom is a geometric function (dot, length, ...).
	BGeom
)

// workItemBuiltins take one uint dimension argument and return size_t.
var workItemBuiltins = []string{
	"get_global_id", "get_local_id", "get_group_id",
	"get_global_size", "get_local_size", "get_num_groups",
}

func checkWorkItem(name string) func(Pos, []Expr) (Type, error) {
	return func(pos Pos, args []Expr) (Type, error) {
		if len(args) != 1 {
			return nil, errf(pos, "%s expects 1 argument", name)
		}
		if s, ok := args[0].ExprType().(*ScalarType); !ok || !s.Kind.IsInteger() {
			return nil, errf(pos, "%s dimension must be an integer", name)
		}
		return TypeULong, nil // size_t
	}
}

func checkUnaryMath(name string) func(Pos, []Expr) (Type, error) {
	return func(pos Pos, args []Expr) (Type, error) {
		if len(args) != 1 {
			return nil, errf(pos, "%s expects 1 argument", name)
		}
		t := args[0].ExprType()
		switch tt := t.(type) {
		case *ScalarType:
			if tt.Kind.IsInteger() {
				return TypeFloat, nil
			}
			return tt, nil
		case *VectorType:
			if tt.Elem.Kind.IsFloat() {
				return tt, nil
			}
		}
		return nil, errf(pos, "%s requires a floating argument", name)
	}
}

func checkBinaryMath(name string) func(Pos, []Expr) (Type, error) {
	return func(pos Pos, args []Expr) (Type, error) {
		if len(args) != 2 {
			return nil, errf(pos, "%s expects 2 arguments", name)
		}
		return Promote(args[0].ExprType(), args[1].ExprType()), nil
	}
}

func checkTernaryMath(name string) func(Pos, []Expr) (Type, error) {
	return func(pos Pos, args []Expr) (Type, error) {
		if len(args) != 3 {
			return nil, errf(pos, "%s expects 3 arguments", name)
		}
		t := Promote(Promote(args[0].ExprType(), args[1].ExprType()), args[2].ExprType())
		return t, nil
	}
}

// builtinTable is the registry of supported builtins.
var builtinTable = map[string]*Builtin{}

func registerBuiltin(b *Builtin) { builtinTable[b.Name] = b }

func init() {
	for _, name := range workItemBuiltins {
		registerBuiltin(&Builtin{Name: name, Kind: BWorkItem, Arity: 1, Check: checkWorkItem(name)})
	}
	registerBuiltin(&Builtin{Name: "get_work_dim", Kind: BWorkItem,
		Check: func(pos Pos, args []Expr) (Type, error) {
			if len(args) != 0 {
				return nil, errf(pos, "get_work_dim expects no arguments")
			}
			return TypeUInt, nil
		}})
	for _, name := range []string{"barrier", "mem_fence", "read_mem_fence", "write_mem_fence"} {
		n := name
		registerBuiltin(&Builtin{Name: n, Kind: BBarrier, Arity: 1,
			Check: func(pos Pos, args []Expr) (Type, error) {
				if len(args) != 1 {
					return nil, errf(pos, "%s expects 1 argument", n)
				}
				if s, ok := args[0].ExprType().(*ScalarType); !ok || !s.Kind.IsInteger() {
					return nil, errf(pos, "%s flags must be an integer", n)
				}
				return TypeVoid, nil
			}})
	}
	unary := []string{
		"sqrt", "rsqrt", "fabs", "exp", "exp2", "log", "log2", "sin", "cos",
		"tan", "floor", "ceil", "trunc", "round",
		"native_sqrt", "native_rsqrt", "native_exp", "native_log",
		"native_sin", "native_cos", "native_recip",
		"half_sqrt", "half_rsqrt",
	}
	for _, name := range unary {
		registerBuiltin(&Builtin{Name: name, Kind: BMath, Arity: 1, Check: checkUnaryMath(name)})
	}
	binary := []string{"pow", "fmin", "fmax", "fmod", "min", "max", "native_divide", "atan2", "hypot"}
	for _, name := range binary {
		registerBuiltin(&Builtin{Name: name, Kind: BMath, Arity: 2, Check: checkBinaryMath(name)})
	}
	ternary := []string{"mad", "fma", "clamp", "mix"}
	for _, name := range ternary {
		registerBuiltin(&Builtin{Name: name, Kind: BMath, Arity: 3, Check: checkTernaryMath(name)})
	}
	registerBuiltin(&Builtin{Name: "abs", Kind: BMath, Arity: 1, Check: checkUnaryMath("abs")})
	registerBuiltin(&Builtin{Name: "dot", Kind: BGeom, Arity: 2,
		Check: func(pos Pos, args []Expr) (Type, error) {
			if len(args) != 2 {
				return nil, errf(pos, "dot expects 2 arguments")
			}
			// dot on scalars degenerates to multiply
			return geomType(pos, "dot", args)
		}})
	registerBuiltin(&Builtin{Name: "length", Kind: BGeom, Arity: 1,
		Check: func(pos Pos, args []Expr) (Type, error) {
			if len(args) != 1 {
				return nil, errf(pos, "length expects 1 argument")
			}
			return geomType(pos, "length", args)
		}})
}

// geomType is the type of geometric builtin name over args: the element
// type of its float scalar or vector operands.
func geomType(pos Pos, name string, args []Expr) (Type, error) {
	for _, a := range args {
		if !ElemKind(a.ExprType()).IsFloat() {
			return nil, errf(pos, "%s requires floating arguments, found %s", name, a.ExprType())
		}
	}
	return &ScalarType{Kind: ElemKind(args[0].ExprType())}, nil
}

// LookupBuiltin returns the builtin descriptor for name, or nil.
func LookupBuiltin(name string) *Builtin { return builtinTable[name] }

// PredefinedMacros returns the macros every kernel compilation gets: the
// OpenCL barrier-flag constants and a marker identifying this front-end.
func PredefinedMacros() map[string]string {
	return map[string]string{
		"CLK_LOCAL_MEM_FENCE":  "1",
		"CLK_GLOBAL_MEM_FENCE": "2",
		"__OPENCL_VERSION__":   "120",
		"__GROVER_CLC__":       "1",
		"FLT_MAX":              "3.402823466e+38f",
		"FLT_EPSILON":          "1.192092896e-07f",
		"M_PI":                 "3.14159265358979323846f",
		"INFINITY":             "(1.0f/0.0f)",
	}
}
