package cows

import (
	"strings"
)

// String renders s in the textual syntax accepted by Parse:
//
//	P.T!<a,b>  [x]s  {|s|}  kill(k)  *s  s|s  g+g  P.T?<$x>.s  0
//
// Bound identifiers keep their source spelling (including freshness
// suffixes); use Canon for an alpha-invariant form.
func String(s Service) string {
	var b strings.Builder
	printInto(&b, s, precPar)
	return b.String()
}

// Operator precedence levels for parenthesization, loosest first.
const (
	precPar = iota
	precChoice
	precPrefix
)

func printInto(b *strings.Builder, s Service, ctx int) {
	switch t := s.(type) {
	case nil, Nil:
		b.WriteString("0")
	case *Invoke:
		b.WriteString(t.Partner)
		b.WriteByte('.')
		b.WriteString(t.Op)
		b.WriteString("!<")
		for i, a := range t.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			printExpr(b, a)
		}
		b.WriteByte('>')
	case *Request:
		printRequest(b, t)
	case *Choice:
		if ctx > precChoice {
			b.WriteByte('(')
		}
		for i, br := range t.Branches {
			if i > 0 {
				b.WriteString(" + ")
			}
			printRequest(b, br)
		}
		if ctx > precChoice {
			b.WriteByte(')')
		}
	case *Par:
		if ctx > precPar {
			b.WriteByte('(')
		}
		for i, k := range t.Kids {
			if i > 0 {
				b.WriteString(" | ")
			}
			printInto(b, k, precChoice)
		}
		if ctx > precPar {
			b.WriteByte(')')
		}
	case *Scope:
		b.WriteByte('[')
		b.WriteString(t.Ident)
		switch {
		case t.Kind == DeclVar:
			b.WriteString(":var")
		case t.Kind == DeclKill:
			b.WriteString(":kill")
		case inferKind(t.Body, t.Ident) != DeclName:
			// The body uses the name as a killer label or a variable, so
			// an unannotated scope would reparse under that sort.
			b.WriteString(":name")
		}
		b.WriteByte(']')
		printInto(b, t.Body, precPrefix)
	case *Protect:
		b.WriteString("{|")
		printInto(b, t.Body, precPar)
		b.WriteString("|}")
	case *Kill:
		b.WriteString("kill(")
		b.WriteString(t.Label)
		b.WriteByte(')')
	case *Repl:
		b.WriteByte('*')
		printInto(b, t.Body, precPrefix)
	}
}

func printRequest(b *strings.Builder, r *Request) {
	b.WriteString(r.Partner)
	b.WriteByte('.')
	b.WriteString(r.Op)
	b.WriteString("?<")
	for i, p := range r.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		switch pt := p.(type) {
		case PLit:
			printAtom(b, string(pt))
		case PVar:
			b.WriteByte('$')
			b.WriteString(string(pt))
		}
	}
	b.WriteByte('>')
	// Only a literal 0 may be left off: a continuation merely congruent
	// to 0, such as [n]0, is a distinct term.
	if _, zero := r.Cont.(Nil); !zero && r.Cont != nil {
		b.WriteByte('.')
		printInto(b, r.Cont, precPrefix)
	}
}

// printAtom writes a literal value, quoting it when it is not a plain
// identifier (runtime values such as the empty origin set "-" or set
// values "T1+T2" must survive a print→parse round trip).
func printAtom(b *strings.Builder, v string) {
	if ParseFragmentName(v) == nil {
		b.WriteString(v)
		return
	}
	b.WriteByte('\'')
	b.WriteString(v)
	b.WriteByte('\'')
}

func printExpr(b *strings.Builder, e Expr) {
	switch t := e.(type) {
	case Lit:
		printAtom(b, string(t))
	case Var:
		b.WriteByte('$')
		b.WriteString(string(t))
	case *UnionExpr:
		b.WriteString("u(")
		for i, op := range t.Operands {
			if i > 0 {
				b.WriteByte(',')
			}
			printExpr(b, op)
		}
		b.WriteByte(')')
	}
}
