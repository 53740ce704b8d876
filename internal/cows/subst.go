package cows

import (
	"strconv"
	"sync/atomic"
)

// subst applies the variable substitution sigma to s, returning a new
// tree. Substitution stops at an inner Scope re-declaring one of the
// substituted variables (shadowing).
func subst(s Service, sigma map[string]string) Service {
	if len(sigma) == 0 {
		return s
	}
	switch t := s.(type) {
	case nil, Nil:
		return Nil{}
	case *Invoke:
		args := make([]Expr, len(t.Args))
		changed := false
		for i, a := range t.Args {
			na := substExpr(a, sigma)
			args[i] = na
			if na != a {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return &Invoke{Partner: t.Partner, Op: t.Op, Args: args}
	case *Request:
		params := make([]Pattern, len(t.Params))
		for i, p := range t.Params {
			if v, ok := p.(PVar); ok {
				if val, hit := sigma[string(v)]; hit {
					// A bound occurrence in pattern position
					// would have been shadowed by its scope;
					// reaching here means the variable was
					// substituted from an outer binding that
					// this request reuses as a match literal.
					params[i] = PLit(val)
					continue
				}
			}
			params[i] = p
		}
		return &Request{Partner: t.Partner, Op: t.Op, Params: params, Cont: subst(t.Cont, sigma)}
	case *Choice:
		branches := make([]*Request, len(t.Branches))
		for i, b := range t.Branches {
			branches[i] = subst(b, sigma).(*Request)
		}
		return &Choice{Branches: branches}
	case *Par:
		kids := make([]Service, len(t.Kids))
		for i, k := range t.Kids {
			kids[i] = subst(k, sigma)
		}
		return &Par{Kids: kids}
	case *Scope:
		if t.Kind == DeclVar {
			if _, shadowed := sigma[t.Ident]; shadowed {
				inner := shallowCopyWithout(sigma, t.Ident)
				if len(inner) == 0 {
					return t
				}
				return &Scope{Kind: t.Kind, Ident: t.Ident, Body: subst(t.Body, inner)}
			}
		}
		return &Scope{Kind: t.Kind, Ident: t.Ident, Body: subst(t.Body, sigma)}
	case *Protect:
		return &Protect{Body: subst(t.Body, sigma)}
	case *Kill:
		return t
	case *Repl:
		return &Repl{Body: subst(t.Body, sigma)}
	default:
		return s
	}
}

func substExpr(e Expr, sigma map[string]string) Expr {
	switch t := e.(type) {
	case Lit:
		return t
	case Var:
		if v, ok := sigma[string(t)]; ok {
			return Lit(v)
		}
		return t
	case *UnionExpr:
		ops := make([]Expr, len(t.Operands))
		for i, op := range t.Operands {
			ops[i] = substExpr(op, sigma)
		}
		return &UnionExpr{Operands: ops}
	default:
		return e
	}
}

func shallowCopyWithout(m map[string]string, key string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		if k != key {
			out[k] = v
		}
	}
	return out
}

// freshen alpha-renames every Scope-bound identifier in s to a fresh
// identifier drawn from counter. Replication unfolds use it so that
// concurrent copies of a service do not share private names, variables or
// killer labels.
func freshen(s Service, counter *atomic.Int64) Service {
	r := renamer{counter: counter}
	return r.service(s)
}

// renamer carries the renamings of the scopes enclosing the node being
// copied as a stack, innermost last, so an inner scope shadows an outer
// one of the same identifier.
type renamer struct {
	from, to []string
	counter  *atomic.Int64
}

func (r *renamer) service(s Service) Service {
	switch t := s.(type) {
	case nil, Nil:
		return Nil{}
	case *Invoke:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = r.expr(a)
		}
		return &Invoke{Partner: r.ident(t.Partner), Op: r.ident(t.Op), Args: args}
	case *Request:
		params := make([]Pattern, len(t.Params))
		for i, p := range t.Params {
			switch pt := p.(type) {
			case PLit:
				params[i] = PLit(r.ident(string(pt)))
			case PVar:
				params[i] = PVar(r.ident(string(pt)))
			}
		}
		return &Request{
			Partner: r.ident(t.Partner),
			Op:      r.ident(t.Op),
			Params:  params,
			Cont:    r.service(t.Cont),
		}
	case *Choice:
		branches := make([]*Request, len(t.Branches))
		for i, b := range t.Branches {
			branches[i] = r.service(b).(*Request)
		}
		return &Choice{Branches: branches}
	case *Par:
		kids := make([]Service, len(t.Kids))
		for i, k := range t.Kids {
			kids[i] = r.service(k)
		}
		return &Par{Kids: kids}
	case *Scope:
		fresh := t.Ident + "~" + strconv.FormatInt(r.counter.Add(1), 10)
		r.from = append(r.from, t.Ident)
		r.to = append(r.to, fresh)
		body := r.service(t.Body)
		r.from, r.to = r.from[:len(r.from)-1], r.to[:len(r.to)-1]
		return &Scope{Kind: t.Kind, Ident: fresh, Body: body}
	case *Protect:
		return &Protect{Body: r.service(t.Body)}
	case *Kill:
		return &Kill{Label: r.ident(t.Label)}
	case *Repl:
		return &Repl{Body: r.service(t.Body)}
	default:
		return s
	}
}

func (r *renamer) ident(id string) string {
	for i := len(r.from) - 1; i >= 0; i-- {
		if r.from[i] == id {
			return r.to[i]
		}
	}
	return id
}

func (r *renamer) expr(e Expr) Expr {
	switch t := e.(type) {
	case Lit:
		return Lit(r.ident(string(t)))
	case Var:
		return Var(r.ident(string(t)))
	case *UnionExpr:
		ops := make([]Expr, len(t.Operands))
		for i, op := range t.Operands {
			ops[i] = r.expr(op)
		}
		return &UnionExpr{Operands: ops}
	default:
		return e
	}
}

// halt implements the effect of a kill signal on a service: every
// unprotected activity is terminated (replaced by 0); protection blocks
// survive intact. See the COWS semantics, rule for kill(k).
func halt(s Service) Service {
	switch t := s.(type) {
	case nil, Nil:
		return Nil{}
	case *Invoke, *Request, *Choice, *Kill:
		return Nil{}
	case *Par:
		kids := make([]Service, 0, len(t.Kids))
		for _, k := range t.Kids {
			h := halt(k)
			if !IsNil(h) {
				kids = append(kids, h)
			}
		}
		return Parallel(kids...)
	case *Scope:
		b := halt(t.Body)
		if IsNil(b) {
			return Nil{}
		}
		return &Scope{Kind: t.Kind, Ident: t.Ident, Body: b}
	case *Protect:
		return t
	case *Repl:
		return Nil{}
	default:
		return Nil{}
	}
}
