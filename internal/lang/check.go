package lang

import (
	"fmt"
	"sort"
)

// Declaration caps. The service compiles arbitrary user programs, so every
// dimension of a program is bounded; maxArrayWords matches the inline
// kernel spec's element cap.
const (
	maxParams     = 32
	maxArrayDecls = 64
	maxGlobals    = 64
	maxFuncs      = 64
	maxFuncParams = 8
	maxArrayWords = 1 << 16
)

// Check resolves names, type-checks, folds constants and runs the index
// range analysis over a parsed file, mutating the AST in place (symbol
// links, types, constants, in-bounds facts). inputs overrides declared
// param defaults; every key must name a param. Check must succeed before
// Lower or Eval.
func Check(f *File, inputs map[string]int64) error {
	c := &checker{f: f, globals: map[string]*Symbol{}, ivals: map[*Symbol]interval{}}
	c.declare(inputs)
	if len(c.diags) == 0 {
		for _, fn := range f.Funcs {
			c.checkFunc(fn)
		}
		c.checkMain()
		c.checkRecursion()
	}
	if len(c.diags) == 0 {
		c.collectMainLocals()
	}
	if len(c.diags) > 0 {
		return &Error{Diags: c.diags}
	}
	return nil
}

// collectMainLocals gathers main's top-level var declarations. Each
// top-level for loop lowers to its own region, and regions have disjoint
// register namespaces, so a scalar declared before a loop and used inside
// it must travel through memory; these locals get slots in the hidden
// globals array, after the file-level globals.
func (c *checker) collectMainLocals() {
	for _, s := range c.f.Main.Body {
		if v, ok := s.(*VarStmt); ok {
			v.Name.Sym.GlobalIdx = int64(len(c.f.Globals) + len(c.f.MainLocals))
			c.f.MainLocals = append(c.f.MainLocals, v)
		}
	}
	if len(c.f.MainLocals) > maxGlobals {
		c.errf(CodeLimit, c.f.Main.P, "main declares %d top-level variables (max %d)", len(c.f.MainLocals), maxGlobals)
	}
}

type checker struct {
	f       *File
	diags   []Diagnostic
	globals map[string]*Symbol
	scopes  []map[string]*Symbol
	// ivals holds the proven value range of canonical loop counters,
	// valid while checking the loop body.
	ivals map[*Symbol]interval
	curFn *FuncDecl
}

func (c *checker) errf(code string, pos Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Code: code, Message: fmt.Sprintf(format, args...), Line: pos.Line, Col: pos.Col})
}

// declareName installs a top-level symbol, rejecting duplicates (params,
// arrays, globals and functions share one namespace).
func (c *checker) declareName(name string, pos Pos, s *Symbol) {
	if _, dup := c.globals[name]; dup {
		c.errf(CodeRedeclared, pos, "%s redeclares %q", s.Kind, name)
		return
	}
	c.globals[name] = s
}

// declare installs every top-level declaration and applies input
// overrides (array sizes may reference params, so overrides come first).
func (c *checker) declare(inputs map[string]int64) {
	f := c.f
	if len(f.Params) > maxParams {
		c.errf(CodeLimit, f.Params[maxParams].P, "too many params (max %d)", maxParams)
		return
	}
	if len(f.Arrays) > maxArrayDecls {
		c.errf(CodeLimit, f.Arrays[maxArrayDecls].P, "too many arrays (max %d)", maxArrayDecls)
		return
	}
	if len(f.Globals) > maxGlobals {
		c.errf(CodeLimit, f.Globals[maxGlobals].P, "too many global vars (max %d)", maxGlobals)
		return
	}
	if len(f.Funcs) > maxFuncs {
		c.errf(CodeLimit, f.Funcs[maxFuncs].P, "too many functions (max %d)", maxFuncs)
		return
	}
	for _, d := range f.Params {
		d.Sym = &Symbol{Kind: symParam, Name: d.Name, Type: TInt, Val: d.Value}
		c.declareName(d.Name, d.P, d.Sym)
	}
	inputNames := make([]string, 0, len(inputs))
	for name := range inputs {
		inputNames = append(inputNames, name)
	}
	sort.Strings(inputNames)
	for _, name := range inputNames {
		s, ok := c.globals[name]
		if !ok || s.Kind != symParam {
			c.errf(CodeInput, Pos{}, "input %q does not name a declared param", name)
			continue
		}
		s.Val = inputs[name]
	}
	for _, d := range f.Arrays {
		d.Sym = &Symbol{Kind: symArray, Name: d.Name, Type: d.Elem}
		c.declareName(d.Name, d.P, d.Sym)
		words, ok := c.constInt(d.Size)
		if !ok {
			continue
		}
		if words < 1 || words > maxArrayWords {
			c.errf(CodeBounds, d.Size.Pos(), "array %q size %d out of range [1, %d]", d.Name, words, maxArrayWords)
			continue
		}
		d.Sym.Words = words
		if int64(len(d.Init)) > words {
			c.errf(CodeBounds, d.P, "array %q has %d initializers for %d elements", d.Name, len(d.Init), words)
		}
		for _, e := range d.Init {
			c.constScalar(e, d.Elem)
		}
	}
	for i, d := range f.Globals {
		d.Sym = &Symbol{Kind: symGlobal, Name: d.Name, Type: d.T, GlobalIdx: int64(i)}
		c.declareName(d.Name, d.P, d.Sym)
		if d.Init != nil {
			v, fv, ok := c.constScalar(d.Init, d.T)
			if ok {
				d.Sym.Val, d.Sym.FVal = v, fv
			}
		}
	}
	for _, d := range f.Funcs {
		d.Sym = &Symbol{Kind: symFunc, Name: d.Name, Type: d.Ret, Fn: d}
		c.declareName(d.Name, d.P, d.Sym)
		if len(d.Params) > maxFuncParams {
			c.errf(CodeLimit, d.P, "function %q has %d params (max %d)", d.Name, len(d.Params), maxFuncParams)
		}
	}
}

// constInt checks e and requires a compile-time integer constant (literals
// and params fold).
func (c *checker) constInt(e Expr) (int64, bool) {
	t := c.checkExpr(e)
	if t == TInvalid {
		return 0, false
	}
	if t != TInt {
		c.errf(CodeType, e.Pos(), "expected a constant int expression, got %s", t)
		return 0, false
	}
	if !e.base().Const {
		c.errf(CodeConst, e.Pos(), "expression is not a compile-time constant")
		return 0, false
	}
	return e.base().ConstVal, true
}

// constScalar requires a compile-time constant of type want (int exprs
// over params, or a float literal possibly negated).
func (c *checker) constScalar(e Expr, want Type) (int64, float64, bool) {
	if want == TFloat {
		switch v := e.(type) {
		case *FloatLit:
			v.T = TFloat
			return 0, v.V, true
		case *UnaryExpr:
			if lit, ok := v.X.(*FloatLit); ok && v.Op == "-" {
				v.T, lit.T = TFloat, TFloat
				return 0, -lit.V, true
			}
		}
		c.errf(CodeConst, e.Pos(), "expected a float literal initializer")
		return 0, 0, false
	}
	v, ok := c.constInt(e)
	return v, 0, ok
}

// ---- functions and statements ----

func (c *checker) checkFunc(fn *FuncDecl) {
	c.curFn = fn
	c.scopes = []map[string]*Symbol{{}}
	for i := range fn.Params {
		p := &fn.Params[i]
		p.Sym = &Symbol{Kind: symLocal, Name: p.Name, Type: p.T}
		if _, dup := c.scopes[0][p.Name]; dup {
			c.errf(CodeRedeclared, p.P, "duplicate parameter %q", p.Name)
		}
		c.scopes[0][p.Name] = p.Sym
	}
	c.checkBody(fn.Body, true)
	if fn.Ret != TVoid {
		last := len(fn.Body) - 1
		if last < 0 {
			c.errf(CodeReturn, fn.P, "function %q must end in a return statement", fn.Name)
		} else if _, ok := fn.Body[last].(*ReturnStmt); !ok {
			c.errf(CodeReturn, fn.Body[last].Pos(), "function %q must end in a return statement", fn.Name)
		}
	}
	c.scopes = nil
	c.curFn = nil
}

// checkBody checks a statement list. funcTop marks the top level of a
// function body, the only place a return statement may appear (and only
// as the final statement — functions are inlined, so early returns have
// no lowering).
func (c *checker) checkBody(stmts []Stmt, funcTop bool) {
	for i, s := range stmts {
		if r, ok := s.(*ReturnStmt); ok && (!funcTop || i != len(stmts)-1) {
			c.errf(CodeReturn, r.P, "return must be the final statement of a function body")
			continue
		}
		c.checkStmt(s)
	}
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.globals[name]
}

func (c *checker) checkStmt(s Stmt) {
	switch s := s.(type) {
	case *VarStmt:
		if s.Init != nil {
			if t := c.checkExpr(s.Init); t != TInvalid && t != s.T {
				c.errf(CodeType, s.Init.Pos(), "cannot initialize %s variable %q with %s", s.T, s.Name.Name, t)
			}
		}
		sc := c.scopes[len(c.scopes)-1]
		if _, dup := sc[s.Name.Name]; dup {
			c.errf(CodeRedeclared, s.P, "var redeclares %q in this scope", s.Name.Name)
			return
		}
		s.Name.Sym = &Symbol{Kind: symLocal, Name: s.Name.Name, Type: s.T}
		s.Name.T = s.T
		sc[s.Name.Name] = s.Name.Sym
	case *AssignStmt:
		c.checkAssign(s)
	case *StoreStmt:
		et := c.checkExpr(s.Target)
		vt := c.checkExpr(s.Value)
		if et != TInvalid && vt != TInvalid && et != vt {
			c.errf(CodeType, s.Value.Pos(), "cannot store %s into %s array %q", vt, et, s.Target.Name.Name)
		}
	case *IfStmt:
		c.checkCond(s.Cond)
		c.pushScope()
		c.checkBody(s.Then, false)
		c.popScope()
		if s.Else != nil {
			c.pushScope()
			c.checkBody(s.Else, false)
			c.popScope()
		}
	case *ForStmt:
		c.checkFor(s)
	case *ExprStmt:
		if s.Call != nil {
			c.checkExpr(s.Call)
		}
	case *ReturnStmt:
		fn := c.curFn
		if fn.Ret == TVoid {
			if s.Value != nil {
				c.errf(CodeReturn, s.Value.Pos(), "function %q returns nothing", fn.Name)
			}
			return
		}
		if s.Value == nil {
			c.errf(CodeReturn, s.P, "function %q must return a %s value", fn.Name, fn.Ret)
			return
		}
		if t := c.checkExpr(s.Value); t != TInvalid && t != fn.Ret {
			c.errf(CodeType, s.Value.Pos(), "function %q returns %s, not %s", fn.Name, fn.Ret, t)
		}
	}
}

func (c *checker) checkAssign(s *AssignStmt) {
	sym := c.lookup(s.LHS.Name)
	vt := c.checkExpr(s.Value)
	if sym == nil {
		c.errf(CodeUndefined, s.LHS.P, "%q is not declared", s.LHS.Name)
		return
	}
	s.LHS.Sym = sym
	switch sym.Kind {
	case symLocal, symGlobal:
		s.LHS.T = sym.Type
		if vt != TInvalid && vt != sym.Type {
			c.errf(CodeType, s.Value.Pos(), "cannot assign %s to %s variable %q", vt, sym.Type, sym.Name)
		}
	case symParam:
		c.errf(CodeAssign, s.LHS.P, "cannot assign to param %q (params are immutable; override them via inputs)", sym.Name)
	default:
		c.errf(CodeAssign, s.LHS.P, "cannot assign to %s %q", sym.Kind, sym.Name)
	}
}

func (c *checker) checkCond(e Expr) {
	if t := c.checkExpr(e); t != TInvalid && t != TBool {
		c.errf(CodeType, e.Pos(), "condition must be a comparison (bool), got %s", t)
	}
}

// checkFor checks both loop forms. The counted form may implicitly
// declare its counter; a canonical counted loop additionally yields a
// proven value range for the counter, which the index analysis uses to
// elide wrap-around normalization inside the body.
func (c *checker) checkFor(s *ForStmt) {
	c.pushScope()
	defer c.popScope()
	var counter *Symbol
	if s.Init != nil {
		if c.lookup(s.Init.LHS.Name) == nil {
			// Implicit loop-scoped int counter: for i = 0; ...
			sym := &Symbol{Kind: symLocal, Name: s.Init.LHS.Name, Type: TInt}
			c.scopes[len(c.scopes)-1][s.Init.LHS.Name] = sym
			s.DeclaresVar = true
		}
		c.checkAssign(s.Init)
		counter = s.Init.LHS.Sym
	}
	c.checkCond(s.Cond)
	if s.Post != nil {
		c.checkAssign(s.Post)
	}
	iv, ok := c.counterRange(s, counter)
	if ok {
		c.ivals[counter] = iv
		defer delete(c.ivals, counter)
	}
	c.pushScope()
	c.checkBody(s.Body, false)
	c.popScope()
}

// counterRange proves the value range of a canonical counted-loop
// counter inside the body: constant init, constant step, a constant
// bound, and no other assignment to the counter anywhere in the body.
func (c *checker) counterRange(s *ForStmt, counter *Symbol) (interval, bool) {
	if counter == nil || counter.Kind != symLocal || s.Post == nil || s.Post.LHS.Sym != counter {
		return interval{}, false
	}
	init := s.Init.Value.base()
	if !init.Const {
		return interval{}, false
	}
	step, ok := stepOf(s.Post, counter)
	if !ok || step == 0 {
		return interval{}, false
	}
	cmp, ok := s.Cond.(*BinaryExpr)
	if !ok {
		return interval{}, false
	}
	x, ok := cmp.X.(*Ident)
	if !ok || x.Sym != counter || !cmp.Y.base().Const {
		return interval{}, false
	}
	if assignsTo(s.Body, counter) {
		return interval{}, false
	}
	c0, k := init.ConstVal, cmp.Y.base().ConstVal
	switch {
	case step > 0 && cmp.Op == "<":
		return interval{lo: c0, hi: k - 1, known: k > minI64}, true
	case step > 0 && cmp.Op == "<=":
		return interval{lo: c0, hi: k, known: true}, true
	case step < 0 && cmp.Op == ">":
		return interval{lo: k + 1, hi: c0, known: k < maxI64}, true
	case step < 0 && cmp.Op == ">=":
		return interval{lo: k, hi: c0, known: true}, true
	}
	return interval{}, false
}

// stepOf recognizes i = i + c, i = c + i and i = i - c.
func stepOf(post *AssignStmt, counter *Symbol) (int64, bool) {
	b, ok := post.Value.(*BinaryExpr)
	if !ok {
		return 0, false
	}
	xi, xIsCounter := b.X.(*Ident)
	yi, yIsCounter := b.Y.(*Ident)
	xIsCounter = xIsCounter && xi.Sym == counter
	yIsCounter = yIsCounter && yi.Sym == counter
	switch {
	case b.Op == "+" && xIsCounter && b.Y.base().Const:
		return b.Y.base().ConstVal, true
	case b.Op == "+" && yIsCounter && b.X.base().Const:
		return b.X.base().ConstVal, true
	case b.Op == "-" && xIsCounter && b.Y.base().Const:
		return -b.Y.base().ConstVal, true
	}
	return 0, false
}

// assignsTo reports whether any statement in the tree assigns sym.
func assignsTo(stmts []Stmt, sym *Symbol) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *AssignStmt:
			if s.LHS.Sym == sym {
				return true
			}
		case *IfStmt:
			if assignsTo(s.Then, sym) || assignsTo(s.Else, sym) {
				return true
			}
		case *ForStmt:
			if s.Init != nil && s.Init.LHS.Sym == sym {
				return true
			}
			if s.Post != nil && s.Post.LHS.Sym == sym {
				return true
			}
			if assignsTo(s.Body, sym) {
				return true
			}
		}
	}
	return false
}

// ---- expressions ----

// checkExpr resolves and types e, folding integer constants. It returns
// the type (TInvalid after reporting, or silently when an operand already
// failed — one error per cause).
func (c *checker) checkExpr(e Expr) Type {
	t := c.exprType(e)
	e.base().T = t
	return t
}

func (c *checker) exprType(e Expr) Type {
	switch e := e.(type) {
	case *IntLit:
		e.Const, e.ConstVal = true, e.V
		return TInt
	case *FloatLit:
		return TFloat
	case *Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			c.errf(CodeUndefined, e.P, "%q is not declared", e.Name)
			return TInvalid
		}
		e.Sym = sym
		switch sym.Kind {
		case symParam:
			e.Const, e.ConstVal = true, sym.Val
			return TInt
		case symLocal, symGlobal:
			return sym.Type
		case symArray:
			c.errf(CodeType, e.P, "array %q is not a scalar (index it)", e.Name)
		case symFunc:
			c.errf(CodeType, e.P, "function %q is not a value (call it)", e.Name)
		}
		return TInvalid
	case *IndexExpr:
		return c.checkIndex(e)
	case *CallExpr:
		return c.checkCall(e)
	case *UnaryExpr:
		t := c.checkExpr(e.X)
		switch e.Op {
		case "-":
			if t == TInt {
				if b := e.X.base(); b.Const {
					e.Const, e.ConstVal = true, -b.ConstVal
				}
				return TInt
			}
			if t == TFloat {
				return TFloat
			}
			if t != TInvalid {
				c.errf(CodeType, e.P, "operand of - must be int or float, got %s", t)
			}
		case "!":
			if t == TBool {
				return TBool
			}
			if t != TInvalid {
				c.errf(CodeType, e.P, "operand of ! must be a comparison (bool), got %s", t)
			}
		}
		return TInvalid
	case *BinaryExpr:
		return c.checkBinary(e)
	case *ConvExpr:
		t := c.checkExpr(e.X)
		if t == TInvalid {
			return TInvalid
		}
		if t != TInt && t != TFloat {
			c.errf(CodeType, e.P, "cannot convert %s to %s", t, e.To)
			return TInvalid
		}
		if e.To == TInt && t == TInt {
			b := e.X.base()
			e.Const, e.ConstVal = b.Const, b.ConstVal
		}
		return e.To
	}
	return TInvalid
}

func (c *checker) checkIndex(e *IndexExpr) Type {
	sym := c.lookup(e.Name.Name)
	if sym == nil {
		c.errf(CodeUndefined, e.Name.P, "%q is not declared", e.Name.Name)
		c.checkExpr(e.Index)
		return TInvalid
	}
	e.Name.Sym = sym
	if sym.Kind != symArray {
		c.errf(CodeType, e.Name.P, "%s %q is not an array", sym.Kind, sym.Name)
		c.checkExpr(e.Index)
		return TInvalid
	}
	it := c.checkExpr(e.Index)
	if it == TInvalid {
		return sym.Type
	}
	if it != TInt {
		c.errf(CodeType, e.Index.Pos(), "array index must be int, got %s", it)
		return sym.Type
	}
	if b := e.Index.base(); b.Const {
		// A constant index is checked outright: a provable out-of-range
		// access is a bug, not a wrap.
		if b.ConstVal < 0 || b.ConstVal >= sym.Words {
			c.errf(CodeBounds, e.Index.Pos(), "index %d out of range for array %q of %d elements", b.ConstVal, sym.Name, sym.Words)
			return sym.Type
		}
		e.InBounds = true
		return sym.Type
	}
	if iv := c.intervalOf(e.Index); iv.known && iv.lo >= 0 && iv.hi < sym.Words {
		e.InBounds = true
	}
	return sym.Type
}

func (c *checker) checkCall(e *CallExpr) Type {
	sym := c.lookup(e.Fn.Name)
	for _, a := range e.Args {
		c.checkExpr(a)
	}
	if sym == nil {
		c.errf(CodeUndefined, e.Fn.P, "%q is not declared", e.Fn.Name)
		return TInvalid
	}
	e.Fn.Sym = sym
	if sym.Kind != symFunc {
		c.errf(CodeCall, e.Fn.P, "%s %q is not a function", sym.Kind, sym.Name)
		return TInvalid
	}
	fn := sym.Fn
	if len(e.Args) != len(fn.Params) {
		c.errf(CodeCall, e.P, "function %q takes %d arguments, got %d", fn.Name, len(fn.Params), len(e.Args))
		return fn.Ret
	}
	for i, a := range e.Args {
		if t := a.base().T; t != TInvalid && t != fn.Params[i].T {
			c.errf(CodeCall, a.Pos(), "argument %d of %q must be %s, got %s", i+1, fn.Name, fn.Params[i].T, t)
		}
	}
	return fn.Ret
}

func (c *checker) checkBinary(e *BinaryExpr) Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	if xt == TInvalid || yt == TInvalid {
		return TInvalid
	}
	switch e.Op {
	case "&&", "||":
		if xt != TBool || yt != TBool {
			c.errf(CodeType, e.P, "operands of %s must be comparisons (bool), got %s and %s", e.Op, xt, yt)
			return TInvalid
		}
		return TBool
	case "==", "!=", "<", "<=", ">", ">=":
		if xt != yt {
			c.errf(CodeType, e.P, "mismatched comparison operands: %s %s %s", xt, e.Op, yt)
			return TInvalid
		}
		if xt == TBool {
			c.errf(CodeType, e.P, "cannot compare bool values (combine conditions with && and ||)")
			return TInvalid
		}
		if xt == TFloat && (e.Op == "==" || e.Op == "!=") {
			c.errf(CodeFloatEq, e.P, "floats cannot be compared with %s (the machine has no float equality; compare with < <= > >=)", e.Op)
			return TInvalid
		}
		return TBool
	case "+", "-", "*", "/":
		if xt != yt || xt == TBool {
			c.errf(CodeType, e.P, "mismatched operands: %s %s %s", xt, e.Op, yt)
			return TInvalid
		}
		if xt == TInt {
			c.foldInt(e)
		}
		return xt
	case "%", "&", "|", "^", "<<", ">>":
		if xt != TInt || yt != TInt {
			c.errf(CodeType, e.P, "operands of %s must be int, got %s and %s", e.Op, xt, yt)
			return TInvalid
		}
		c.foldInt(e)
		return TInt
	}
	return TInvalid
}

// foldInt folds a constant integer operation with the machine's exact
// semantics (wraparound, divide-by-zero yields zero, shift counts mask to
// six bits) — a folded constant must be indistinguishable from the op it
// replaces.
func (c *checker) foldInt(e *BinaryExpr) {
	xb, yb := e.X.base(), e.Y.base()
	if xb.Const && yb.Const {
		e.Const, e.ConstVal = true, evalIntOp(e.Op, xb.ConstVal, yb.ConstVal)
	}
}

// ---- main and the call graph ----

func (c *checker) checkMain() {
	for _, fn := range c.f.Funcs {
		if fn.Name == "main" {
			c.f.Main = fn
			if len(fn.Params) > 0 || fn.Ret != TVoid {
				c.errf(CodeMain, fn.P, "main must take no parameters and return nothing")
			}
			if len(fn.Body) == 0 {
				c.errf(CodeMain, fn.P, "main must contain at least one statement")
			}
			return
		}
	}
	c.errf(CodeMain, Pos{1, 1}, "program must declare func main()")
}

// checkRecursion rejects call-graph cycles: functions are inlined at
// their call sites, so recursion has no lowering.
func (c *checker) checkRecursion() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*FuncDecl]int{}
	var visit func(fn *FuncDecl)
	visit = func(fn *FuncDecl) {
		if color[fn] != white {
			return
		}
		color[fn] = gray
		for _, callee := range calleesOf(fn.Body) {
			if color[callee] == gray {
				c.errf(CodeRecursion, callee.P, "function %q is recursive (functions are inlined, so recursion cannot be compiled)", callee.Name)
				continue
			}
			visit(callee)
		}
		color[fn] = black
	}
	for _, fn := range c.f.Funcs {
		visit(fn)
	}
}

// calleesOf collects the functions a statement list calls.
func calleesOf(stmts []Stmt) []*FuncDecl {
	var out []*FuncDecl
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *CallExpr:
			if e.Fn.Sym != nil && e.Fn.Sym.Fn != nil {
				out = append(out, e.Fn.Sym.Fn)
			}
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *IndexExpr:
			walkExpr(e.Index)
		case *UnaryExpr:
			walkExpr(e.X)
		case *BinaryExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		case *ConvExpr:
			walkExpr(e.X)
		}
	}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *VarStmt:
				if s.Init != nil {
					walkExpr(s.Init)
				}
			case *AssignStmt:
				walkExpr(s.Value)
			case *StoreStmt:
				walkExpr(s.Target.Index)
				walkExpr(s.Value)
			case *IfStmt:
				walkExpr(s.Cond)
				walk(s.Then)
				walk(s.Else)
			case *ForStmt:
				if s.Init != nil {
					walkExpr(s.Init.Value)
				}
				walkExpr(s.Cond)
				if s.Post != nil {
					walkExpr(s.Post.Value)
				}
				walk(s.Body)
			case *ExprStmt:
				if s.Call != nil {
					walkExpr(s.Call)
				}
			case *ReturnStmt:
				if s.Value != nil {
					walkExpr(s.Value)
				}
			}
		}
	}
	walk(stmts)
	return out
}
