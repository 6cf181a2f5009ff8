package lang

// Parse lexes and parses ResCCLang source into a Program. The grammar is
// the BNF of Appendix B:
//
//	def       ::= "def" "ResCCLAlgo" "(" paramList ")" ":" block
//	paramList ::= (param ("," param)*)?
//	param     ::= id "=" (int | string | opType)
//	block     ::= INDENT stat+ DEDENT
//	stat      ::= assign | for | transfer
//	assign    ::= id "=" exp NEWLINE
//	for       ::= "for" id "in" "range" "(" exp ("," exp){0,2} ")" ":" block
//	transfer  ::= "transfer" "(" exp "," exp "," exp "," exp "," commType ")" NEWLINE
//	exp       ::= term (("+"|"-") term)*
//	term      ::= unary (("*"|"/"|"%") unary)*
//	unary     ::= "-" unary | atom
//	atom      ::= int | id | "(" exp ")"
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) expect(k TokenKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Line, t.Col, "expected %s, found %s", k, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *parser) skipNewlines() {
	for p.cur().Kind == TokNewline {
		p.pos++
	}
}

func (p *parser) parseProgram() (*Program, error) {
	p.skipNewlines()
	defTok, err := p.expect(TokDef)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if name.Text != "ResCCLAlgo" {
		return nil, errf(name.Line, name.Col, "expected function name 'ResCCLAlgo', found %q", name.Text)
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	prog := &Program{Line: defTok.Line}
	if p.cur().Kind != TokRParen {
		for {
			par, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			prog.Params = append(prog.Params, par)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	prog.Body = body
	p.skipNewlines()
	if t := p.cur(); t.Kind != TokEOF {
		return nil, errf(t.Line, t.Col, "unexpected %s after algorithm body", t)
	}
	return prog, nil
}

func (p *parser) parseParam() (Param, error) {
	id, err := p.expect(TokIdent)
	if err != nil {
		return Param{}, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return Param{}, err
	}
	par := Param{Name: id.Text, Line: id.Line, Col: id.Col}
	switch t := p.cur(); t.Kind {
	case TokInt:
		p.pos++
		par.Int = t.Int
	case TokString:
		p.pos++
		par.IsStr = true
		par.Str = t.Text
	default:
		return Param{}, errf(t.Line, t.Col, "parameter %s: expected integer or string value, found %s", id.Text, t)
	}
	return par, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokIndent); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for {
		p.skipNewlines()
		if p.accept(TokDedent) {
			break
		}
		if p.cur().Kind == TokEOF {
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if len(stmts) == 0 {
		t := p.cur()
		return nil, errf(t.Line, t.Col, "empty block")
	}
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case TokFor:
		return p.parseFor()
	case TokIdent:
		if t.Text == "transfer" {
			return p.parseTransfer()
		}
		return p.parseAssign()
	default:
		return nil, errf(t.Line, t.Col, "expected statement, found %s", t)
	}
}

func (p *parser) parseAssign() (Stmt, error) {
	id, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	return &Assign{Name: id.Text, Value: val, Line: id.Line, Col: id.Col}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	forTok, err := p.expect(TokFor)
	if err != nil {
		return nil, err
	}
	id, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIn); err != nil {
		return nil, err
	}
	rng, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if rng.Text != "range" {
		return nil, errf(rng.Line, rng.Col, "expected 'range', found %q", rng.Text)
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if !p.accept(TokComma) {
			break
		}
	}
	if len(args) > 3 {
		return nil, errf(forTok.Line, forTok.Col, "range() takes 1 to 3 arguments, got %d", len(args))
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &For{Var: id.Text, RangeArgs: args, Body: body, Line: forTok.Line, Col: forTok.Col}, nil
}

func (p *parser) parseTransfer() (Stmt, error) {
	kw, err := p.expect(TokIdent) // "transfer"
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	st := &TransferStmt{Line: kw.Line, Col: kw.Col}
	for i := 0; i < 4; i++ {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Args = append(st.Args, e)
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
	}
	ct := p.cur()
	switch ct.Kind {
	case TokIdent, TokString:
		p.pos++
	default:
		return nil, errf(ct.Line, ct.Col, "expected comm type ('recv' or 'rrc'), found %s", ct)
	}
	if ct.Text != "recv" && ct.Text != "rrc" {
		return nil, errf(ct.Line, ct.Col, "unknown comm type %q (want 'recv' or 'rrc')", ct.Text)
	}
	st.CommType = ct.Text
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline); err != nil {
		return nil, err
	}
	return st, nil
}

// Expression parsing with standard precedence: (* / %) over (+ -).

func (p *parser) parseExpr() (Expr, error) {
	lhs, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op byte
		switch t.Kind {
		case TokPlus:
			op = '+'
		case TokMinus:
			op = '-'
		default:
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		lhs = &BinOp{Op: op, LHS: lhs, RHS: rhs, Line: t.Line, Col: t.Col}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op byte
		switch t.Kind {
		case TokStar:
			op = '*'
		case TokSlash:
			op = '/'
		case TokPercent:
			op = '%'
		default:
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		lhs = &BinOp{Op: op, LHS: lhs, RHS: rhs, Line: t.Line, Col: t.Col}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.cur(); t.Kind == TokMinus {
		p.pos++
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Neg{Operand: operand, Line: t.Line, Col: t.Col}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.pos++
		return &IntLit{Value: t.Int, Line: t.Line, Col: t.Col}, nil
	case TokIdent:
		p.pos++
		return &Ident{Name: t.Text, Line: t.Line, Col: t.Col}, nil
	case TokLParen:
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errf(t.Line, t.Col, "expected expression, found %s", t)
	}
}
