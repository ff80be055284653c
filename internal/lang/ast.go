package lang

// Type is a language type. The language is deliberately small: scalars are
// int (64-bit two's-complement) or float (IEEE float64); bool exists only
// as the type of conditions (it cannot be stored); void is the "type" of a
// function without a result.
type Type int

const (
	TInvalid Type = iota
	TInt
	TFloat
	TBool
	TVoid
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TVoid:
		return "void"
	}
	return "invalid"
}

// symKind classifies a declared name.
type symKind int

const (
	symParam symKind = iota
	symArray
	symGlobal
	symLocal
	symFunc
)

func (k symKind) String() string {
	return [...]string{"param", "array", "global", "local", "func"}[k]
}

// Symbol is one declared name after resolution. A symbol is unique per
// declaration; the checker links every Ident to its symbol.
type Symbol struct {
	Kind symKind
	Name string
	// Type is the scalar type (params are always int; for arrays it is
	// the element type).
	Type Type
	// Words is the array size (symArray only), resolved from its
	// constant size expression with inputs applied.
	Words int64
	// Val is the effective compile-time value: for params the default
	// after input overrides, for globals the constant initializer.
	Val int64
	// FVal is the constant float initializer of a float global.
	FVal float64
	// Fn is the declaration of a symFunc.
	Fn *FuncDecl
	// GlobalIdx is the word offset of a symGlobal in the hidden globals
	// array.
	GlobalIdx int64
}

// exprBase carries what every expression has: a position and, after
// checking, a type and an optional compile-time constant value.
type exprBase struct {
	P Pos
	T Type
	// Const/ConstVal: the expression folds to an int constant (over
	// literals and params). The lowerer uses it for immediate operands
	// and canonical loop bounds.
	Const    bool
	ConstVal int64
}

func (b *exprBase) Pos() Pos   { return b.P }
func (b *exprBase) Type() Type { return b.T }

// Expr is one expression node.
type Expr interface {
	Pos() Pos
	Type() Type
	base() *exprBase
}

func (b *exprBase) base() *exprBase { return b }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	V int64
}

// FloatLit is a float literal.
type FloatLit struct {
	exprBase
	V float64
}

// Ident is a reference to a declared scalar (param, global, or local).
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol // resolved by the checker
}

// IndexExpr is an array element read a[i].
type IndexExpr struct {
	exprBase
	Name  *Ident // the array
	Index Expr
	// InBounds records that range analysis proved 0 <= Index < words, so
	// the lowerer may elide the wrap-around index normalization and keep
	// the address affine.
	InBounds bool
}

// CallExpr is a function call.
type CallExpr struct {
	exprBase
	Fn   *Ident
	Args []Expr
}

// UnaryExpr is -x (numeric) or !b (bool).
type UnaryExpr struct {
	exprBase
	Op string
	X  Expr
}

// BinaryExpr is a binary operation. Op is the source spelling
// (+ - * / % & | ^ << >> == != < <= > >= && ||).
type BinaryExpr struct {
	exprBase
	Op   string
	X, Y Expr
}

// ConvExpr is an explicit conversion int(x) or float(x).
type ConvExpr struct {
	exprBase
	To Type
	X  Expr
}

// Stmt is one statement node.
type Stmt interface{ Pos() Pos }

// VarStmt declares a function-local scalar, zero-initialized unless Init
// is present.
type VarStmt struct {
	P    Pos
	Name *Ident
	T    Type
	Init Expr
}

func (s *VarStmt) Pos() Pos { return s.P }

// AssignStmt assigns a scalar: x = expr.
type AssignStmt struct {
	P     Pos
	LHS   *Ident
	Value Expr
}

func (s *AssignStmt) Pos() Pos { return s.P }

// StoreStmt assigns an array element: a[i] = expr.
type StoreStmt struct {
	P      Pos
	Target *IndexExpr
	Value  Expr
}

func (s *StoreStmt) Pos() Pos { return s.P }

// IfStmt is if cond { } else { }; an else-if chain parses as an IfStmt in
// a one-statement Else.
type IfStmt struct {
	P    Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (s *IfStmt) Pos() Pos { return s.P }

// ForStmt is either the counted form (Init and Post present) or the
// while form (condition only).
type ForStmt struct {
	P    Pos
	Init *AssignStmt // nil in the while form
	Cond Expr
	Post *AssignStmt // nil in the while form
	Body []Stmt
	// DeclaresVar: the init assignment implicitly declares its left-hand
	// side as a loop-scoped int (it named no existing variable).
	DeclaresVar bool
}

func (s *ForStmt) Pos() Pos { return s.P }

// ExprStmt is a call used as a statement.
type ExprStmt struct {
	P    Pos
	Call *CallExpr
}

func (s *ExprStmt) Pos() Pos { return s.P }

// ReturnStmt returns from a function; only valid as the final statement
// of a function body.
type ReturnStmt struct {
	P     Pos
	Value Expr // nil for a bare return
}

func (s *ReturnStmt) Pos() Pos { return s.P }

// ParamDecl is param name = int-literal;
type ParamDecl struct {
	P     Pos
	Name  string
	Value int64
	Sym   *Symbol
}

// ArrayDecl is array name[size] type [= {v, ...}];
type ArrayDecl struct {
	P    Pos
	Name string
	Elem Type
	Size Expr
	Init []Expr
	Sym  *Symbol
}

// VarDecl is a top-level var: a memory-backed global scalar.
type VarDecl struct {
	P    Pos
	Name string
	T    Type
	Init Expr // must be constant
	Sym  *Symbol
}

// FuncParam is one function parameter.
type FuncParam struct {
	P    Pos
	Name string
	T    Type
	Sym  *Symbol
}

// FuncDecl is func name(params) [type] { body }.
type FuncDecl struct {
	P      Pos
	Name   string
	Params []FuncParam
	Ret    Type // TVoid when absent
	Body   []Stmt
	Sym    *Symbol
}

// File is one parsed source program.
type File struct {
	Params  []*ParamDecl
	Arrays  []*ArrayDecl
	Globals []*VarDecl
	Funcs   []*FuncDecl

	// Main is the entry function, located by the checker.
	Main *FuncDecl

	// MainLocals are main's top-level var statements. They may be live
	// across region boundaries (each top-level loop is its own region),
	// so they are memory-backed: each gets a slot in the hidden globals
	// array, after the file-level globals (see Symbol.GlobalIdx).
	MainLocals []*VarStmt
}

// memWords is the size of the hidden globals array: file-level globals
// plus main's top-level locals. Zero when the program needs none.
func (f *File) memWords() int {
	return len(f.Globals) + len(f.MainLocals)
}

// ParamDefaults returns the declared default of every param (before any
// input overrides). Available after Check.
func (f *File) ParamDefaults() map[string]int64 {
	out := make(map[string]int64, len(f.Params))
	for _, p := range f.Params {
		out[p.Name] = p.Value
	}
	return out
}

// walkExpr calls fn on e and every sub-expression.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *IndexExpr:
		walkExpr(e.Index, fn)
	case *CallExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	case *UnaryExpr:
		walkExpr(e.X, fn)
	case *BinaryExpr:
		walkExpr(e.X, fn)
		walkExpr(e.Y, fn)
	case *ConvExpr:
		walkExpr(e.X, fn)
	}
}

// walkExprs calls fn on every expression in the statement tree, including
// assignment left-hand sides and store targets.
func walkExprs(stmts []Stmt, fn func(Expr)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *VarStmt:
			walkExpr(s.Name, fn)
			walkExpr(s.Init, fn)
		case *AssignStmt:
			walkExpr(s.LHS, fn)
			walkExpr(s.Value, fn)
		case *StoreStmt:
			walkExpr(s.Target, fn)
			walkExpr(s.Value, fn)
		case *IfStmt:
			walkExpr(s.Cond, fn)
			walkExprs(s.Then, fn)
			walkExprs(s.Else, fn)
		case *ForStmt:
			if s.Init != nil {
				walkExpr(s.Init.LHS, fn)
				walkExpr(s.Init.Value, fn)
			}
			walkExpr(s.Cond, fn)
			if s.Post != nil {
				walkExpr(s.Post.LHS, fn)
				walkExpr(s.Post.Value, fn)
			}
			walkExprs(s.Body, fn)
		case *ExprStmt:
			walkExpr(s.Call, fn)
		case *ReturnStmt:
			walkExpr(s.Value, fn)
		}
	}
}

// hasCall reports whether e contains a function call (calls are the only
// expressions with side effects, which the lowerer must order around).
func hasCall(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*CallExpr); ok {
			found = true
		}
	})
	return found
}
