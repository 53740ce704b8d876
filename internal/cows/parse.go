package cows

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a COWS service from its textual syntax:
//
//	service  := par
//	par      := term ( '|' term )*
//	term     := '*' term
//	          | '[' ident (':' ('name'|'var'|'kill'))? ']' term
//	          | '{|' par '|}'
//	          | 'kill' '(' ident ')'
//	          | '0'
//	          | '(' par ')'
//	          | choice
//	choice   := activity ( '+' activity )*
//	activity := ident '.' ident ( '!' '<' args '>' | '?' '<' params '>' ( '.' term )? )
//	args     := ( arg (',' arg)* )?     arg   := ident | '$'ident | 'u(' arg (',' arg)* ')'
//	params   := ( param (',' param)* )?  param := ident | '$'ident
//
// When a scope omits its kind annotation it is inferred: kill if the body
// contains kill(ident); var if ident occurs as a '$'-variable in the body;
// name otherwise. Whitespace and //-to-end-of-line comments are ignored.
func Parse(src string) (Service, error) { return parseFrom(&lexer{src: src}) }

func parseFrom(l *lexer) (Service, error) {
	p := &parser{lex: l}
	s, err := p.parsePar()
	if err != nil {
		return nil, err
	}
	if tok := p.lex.peek(); tok.kind != tokEOF {
		return nil, fmt.Errorf("cows: unexpected %q at offset %d", tok.text, tok.pos)
	}
	return s, nil
}

// MustParse is Parse that panics on error, for tests and fixtures.
func MustParse(src string) Service {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokZero   // 0
	tokStar   // *
	tokPipe   // |
	tokPlus   // +
	tokDot    // .
	tokBang   // !
	tokQuest  // ?
	tokLT     // <
	tokGT     // >
	tokLBrak  // [
	tokRBrak  // ]
	tokLParen // (
	tokRParen // )
	tokComma  // ,
	tokColon  // :
	tokDollar // $
	tokLProt  // {|
	tokRProt  // |}
	// tokInvalid is a byte >= 0x80 outside a quoted atom or comment;
	// its text is the offending rune, so every error naming it is
	// precise. No grammar production accepts it.
	tokInvalid
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// singleTok maps each one-character punctuation byte to its token kind;
// tokEOF means "not punctuation".
var singleTok = [256]tokKind{
	'*': tokStar, '|': tokPipe, '+': tokPlus, '.': tokDot, '!': tokBang,
	'?': tokQuest, '<': tokLT, '>': tokGT, '[': tokLBrak, ']': tokRBrak,
	'(': tokLParen, ')': tokRParen, ',': tokComma, ':': tokColon, '$': tokDollar,
}

// lexer is allocation-free: token text is always a slice of src, and
// the one-token lookahead is held by value.
type lexer struct {
	src    string
	pos    int
	peeked token
	has    bool
	// scanWith, when set, replaces scan with a lexer that reads src
	// from pos and returns the token and the new position: the
	// differential fuzz test drives the parser with the reference lexer
	// through it. It takes no *lexer so the lexer never escapes.
	scanWith func(src string, pos int) (token, int)
}

func (l *lexer) peek() token {
	if !l.has {
		if l.scanWith != nil {
			l.peeked, l.pos = l.scanWith(l.src, l.pos)
		} else {
			l.peeked = l.scan()
		}
		l.has = true
	}
	return l.peeked
}

func (l *lexer) next() token {
	t := l.peek()
	l.has = false
	return t
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}
	}
	start := l.pos
	c := l.src[l.pos]
	if l.pos+1 < len(l.src) {
		switch l.src[l.pos : l.pos+2] {
		case "{|":
			l.pos += 2
			return token{kind: tokLProt, text: l.src[start:l.pos], pos: start}
		case "|}":
			l.pos += 2
			return token{kind: tokRProt, text: l.src[start:l.pos], pos: start}
		}
	}
	if k := singleTok[c]; k != tokEOF {
		l.pos++
		return token{kind: k, text: l.src[start:l.pos], pos: start}
	}
	if c == '\'' {
		// Quoted atom: a literal value that is not identifier-shaped
		// (e.g. "-" or "T1+T2" from serialized runtime states).
		end := l.pos + 1
		for end < len(l.src) && l.src[end] != '\'' && l.src[end] != '\n' {
			end++
		}
		if end >= len(l.src) || l.src[end] != '\'' {
			return token{kind: tokEOF, text: "unterminated quote", pos: start}
		}
		text := l.src[l.pos+1 : end]
		l.pos = end + 1
		return token{kind: tokIdent, text: text, pos: start}
	}
	if c >= utf8.RuneSelf {
		_, size := utf8.DecodeRuneInString(l.src[l.pos:])
		l.pos += size
		return token{kind: tokInvalid, text: l.src[start:l.pos], pos: start}
	}
	if c == '0' && (l.pos+1 >= len(l.src) || !isIdentByte(l.src[l.pos+1])) {
		l.pos++
		return token{kind: tokZero, text: l.src[start:l.pos], pos: start}
	}
	if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
	}
	// Any other ASCII byte ends the token stream: the parser reports it
	// where a token is required.
	l.pos++
	return token{kind: tokEOF, text: l.src[start:l.pos], pos: start}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentByte(b byte) bool {
	return b == '_' || b == '-' || b == '~' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

type parser struct {
	lex *lexer
}

func (p *parser) parsePar() (Service, error) {
	first, err := p.parseTerm(true)
	if err != nil {
		return nil, err
	}
	kids := []Service{first}
	for p.lex.peek().kind == tokPipe {
		p.lex.next()
		t, err := p.parseTerm(true)
		if err != nil {
			return nil, err
		}
		kids = append(kids, t)
	}
	return Parallel(kids...), nil
}

// parseTerm parses one term. When allowChoice is false the term stops
// before a '+' (prefix binds tighter than choice), so activity
// continuations do not swallow outer choice branches.
func (p *parser) parseTerm(allowChoice bool) (Service, error) {
	tok := p.lex.peek()
	switch tok.kind {
	case tokZero:
		p.lex.next()
		return Nil{}, nil
	case tokStar:
		p.lex.next()
		body, err := p.parseTerm(allowChoice)
		if err != nil {
			return nil, err
		}
		return &Repl{Body: body}, nil
	case tokLBrak:
		return p.parseScope(allowChoice)
	case tokLProt:
		p.lex.next()
		body, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRProt); err != nil {
			return nil, err
		}
		return &Protect{Body: body}, nil
	case tokLParen:
		p.lex.next()
		body, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return body, nil
	case tokIdent:
		if tok.text == "kill" {
			return p.parseKill(allowChoice)
		}
		return p.parseChoice(allowChoice)
	default:
		return nil, fmt.Errorf("cows: unexpected %q at offset %d", tok.text, tok.pos)
	}
}

func (p *parser) parseKill(allowChoice bool) (Service, error) {
	// Lookahead: "kill(" is the activity; a plain ident "kill" used as
	// a partner would be followed by '.', which we also support.
	kw := p.lex.next() // "kill"
	if p.lex.peek().kind != tokLParen {
		// It was an endpoint partner named "kill"; rewind is not
		// supported, so parse the rest of the activity here.
		return p.parseChoiceFromPartner(kw.text, allowChoice)
	}
	p.lex.next()
	id, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return &Kill{Label: id}, nil
}

func (p *parser) parseScope(allowChoice bool) (Service, error) {
	p.lex.next() // '['
	ident, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	kind := DeclKind(-1)
	if p.lex.peek().kind == tokColon {
		p.lex.next()
		k, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch k {
		case "name":
			kind = DeclName
		case "var":
			kind = DeclVar
		case "kill":
			kind = DeclKill
		default:
			return nil, fmt.Errorf("cows: unknown scope kind %q", k)
		}
	}
	if err := p.expect(tokRBrak); err != nil {
		return nil, err
	}
	body, err := p.parseTerm(allowChoice)
	if err != nil {
		return nil, err
	}
	if kind == DeclKind(-1) {
		kind = inferKind(body, ident)
	}
	return &Scope{Kind: kind, Ident: ident, Body: body}, nil
}

// inferKind guesses what an unannotated scope binds by inspecting how the
// identifier is used in the body.
func inferKind(body Service, ident string) DeclKind {
	if usesAsKill(body, ident) {
		return DeclKill
	}
	if usesAsVar(body, ident) {
		return DeclVar
	}
	return DeclName
}

func usesAsKill(s Service, ident string) bool {
	switch t := s.(type) {
	case *Kill:
		return t.Label == ident
	case *Request:
		return usesAsKill(t.Cont, ident)
	case *Choice:
		for _, b := range t.Branches {
			if usesAsKill(b, ident) {
				return true
			}
		}
	case *Par:
		for _, k := range t.Kids {
			if usesAsKill(k, ident) {
				return true
			}
		}
	case *Scope:
		if t.Ident == ident {
			return false
		}
		return usesAsKill(t.Body, ident)
	case *Protect:
		return usesAsKill(t.Body, ident)
	case *Repl:
		return usesAsKill(t.Body, ident)
	}
	return false
}

func usesAsVar(s Service, ident string) bool {
	switch t := s.(type) {
	case *Invoke:
		for _, a := range t.Args {
			if exprUsesVar(a, ident) {
				return true
			}
		}
	case *Request:
		for _, prm := range t.Params {
			if v, ok := prm.(PVar); ok && string(v) == ident {
				return true
			}
		}
		return usesAsVar(t.Cont, ident)
	case *Choice:
		for _, b := range t.Branches {
			if usesAsVar(b, ident) {
				return true
			}
		}
	case *Par:
		for _, k := range t.Kids {
			if usesAsVar(k, ident) {
				return true
			}
		}
	case *Scope:
		if t.Ident == ident {
			return false
		}
		return usesAsVar(t.Body, ident)
	case *Protect:
		return usesAsVar(t.Body, ident)
	case *Repl:
		return usesAsVar(t.Body, ident)
	}
	return false
}

func exprUsesVar(e Expr, ident string) bool {
	switch t := e.(type) {
	case Var:
		return string(t) == ident
	case *UnionExpr:
		for _, op := range t.Operands {
			if exprUsesVar(op, ident) {
				return true
			}
		}
	}
	return false
}

func (p *parser) parseChoice(allowChoice bool) (Service, error) {
	partner, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return p.parseChoiceFromPartner(partner, allowChoice)
}

func (p *parser) parseChoiceFromPartner(partner string, allowChoice bool) (Service, error) {
	first, err := p.parseActivity(partner)
	if err != nil {
		return nil, err
	}
	req, isReq := first.(*Request)
	if !isReq {
		if allowChoice && p.lex.peek().kind == tokPlus {
			return nil, fmt.Errorf("cows: invoke activity cannot be a choice branch (offset %d)", p.lex.peek().pos)
		}
		return first, nil
	}
	branches := []*Request{req}
	for allowChoice && p.lex.peek().kind == tokPlus {
		p.lex.next()
		pn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		act, err := p.parseActivity(pn)
		if err != nil {
			return nil, err
		}
		r, ok := act.(*Request)
		if !ok {
			return nil, fmt.Errorf("cows: choice branches must be request activities")
		}
		branches = append(branches, r)
	}
	return Sum(branches...), nil
}

// parseActivity parses the remainder of an activity whose partner name
// was already consumed.
func (p *parser) parseActivity(partner string) (Service, error) {
	if err := p.expect(tokDot); err != nil {
		return nil, err
	}
	op, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch p.lex.peek().kind {
	case tokBang:
		p.lex.next()
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &Invoke{Partner: partner, Op: op, Args: args}, nil
	case tokQuest:
		p.lex.next()
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		cont := Service(Nil{})
		if p.lex.peek().kind == tokDot {
			p.lex.next()
			cont, err = p.parseTerm(false)
			if err != nil {
				return nil, err
			}
		}
		return &Request{Partner: partner, Op: op, Params: params, Cont: cont}, nil
	default:
		tok := p.lex.peek()
		return nil, fmt.Errorf("cows: expected '!' or '?' after endpoint %s.%s at offset %d", partner, op, tok.pos)
	}
}

func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expect(tokLT); err != nil {
		return nil, err
	}
	var args []Expr
	if p.lex.peek().kind != tokGT {
		for {
			a, err := p.parseArg()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.lex.peek().kind != tokComma {
				break
			}
			p.lex.next()
		}
	}
	if err := p.expect(tokGT); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) parseArg() (Expr, error) {
	tok := p.lex.peek()
	switch tok.kind {
	case tokDollar:
		p.lex.next()
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return Var(id), nil
	case tokIdent:
		p.lex.next()
		if tok.text == "u" && p.lex.peek().kind == tokLParen {
			p.lex.next()
			var ops []Expr
			for {
				a, err := p.parseArg()
				if err != nil {
					return nil, err
				}
				ops = append(ops, a)
				if p.lex.peek().kind != tokComma {
					break
				}
				p.lex.next()
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return Union(ops...), nil
		}
		return Lit(tok.text), nil
	case tokZero:
		p.lex.next()
		return Lit("0"), nil
	default:
		return nil, fmt.Errorf("cows: expected argument at offset %d, found %q", tok.pos, tok.text)
	}
}

func (p *parser) parseParams() ([]Pattern, error) {
	if err := p.expect(tokLT); err != nil {
		return nil, err
	}
	var params []Pattern
	if p.lex.peek().kind != tokGT {
		for {
			tok := p.lex.next()
			switch tok.kind {
			case tokDollar:
				id, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				params = append(params, PVar(id))
			case tokIdent:
				params = append(params, PLit(tok.text))
			case tokZero:
				params = append(params, PLit("0"))
			default:
				return nil, fmt.Errorf("cows: expected parameter at offset %d, found %q", tok.pos, tok.text)
			}
			if p.lex.peek().kind != tokComma {
				break
			}
			p.lex.next()
		}
	}
	if err := p.expect(tokGT); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) expect(kind tokKind) error {
	tok := p.lex.next()
	if tok.kind != kind {
		return fmt.Errorf("cows: unexpected %q at offset %d", tok.text, tok.pos)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	tok := p.lex.next()
	if tok.kind != tokIdent {
		return "", fmt.Errorf("cows: expected identifier at offset %d, found %q", tok.pos, tok.text)
	}
	return tok.text, nil
}

// ParseFragmentName is a helper exposing identifier syntax checks to
// other packages (the BPMN validator rejects element names that would
// not survive a round trip through the textual syntax).
func ParseFragmentName(name string) error {
	if name == "" {
		return fmt.Errorf("cows: empty identifier")
	}
	if strings.ContainsAny(name, "~+") {
		return fmt.Errorf("cows: identifier %q uses reserved character (~ or +)", name)
	}
	for i, r := range name {
		if i == 0 && !isIdentStart(r) && !(r >= '0' && r <= '9') {
			return fmt.Errorf("cows: identifier %q starts with invalid character", name)
		}
		if r > 127 || !isIdentByte(byte(r)) {
			return fmt.Errorf("cows: identifier %q contains invalid character %q", name, r)
		}
	}
	return nil
}
