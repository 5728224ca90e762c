package parser

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a surface expression back into concrete AQL syntax. The
// output re-parses to the same expression (up to source positions):
// Print(ParseExpr(Print(e))) == Print(e). The REPL uses it to echo macro
// definitions.
func Print(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

// PrintPat renders a pattern.
func PrintPat(p Pat) string {
	var b strings.Builder
	writePat(&b, p)
	return b.String()
}

// Precedence levels, mirroring the parser:
//
//	0 or | 1 and | 2 not | 3 cmp/mem | 4 add | 5 mul | 6 app | 7 postfix | 8 atom
const (
	precOr = iota
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precApp
	precPostfix
	precAtom
)

func binPrec(op string) int {
	switch op {
	case "or":
		return precOr
	case "and":
		return precAnd
	case "=", "<>", "<", ">", "<=", ">=", "mem":
		return precCmp
	case "+", "-", "union", "uplus":
		return precAdd
	case "*", "/", "%":
		return precMul
	}
	return precAtom
}

// writeExpr renders e, parenthesizing when its precedence is below the
// context's.
func writeExpr(b *strings.Builder, e Expr, ctx int) {
	switch n := e.(type) {
	case *Ident:
		b.WriteString(n.Name)
	case *NatLit:
		fmt.Fprintf(b, "%d", n.Val)
	case *RealLit:
		s := strconv.FormatFloat(n.Val, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		if n.Val < 0 {
			// Negative literals only arise programmatically; render via neg.
			b.WriteString("(-" + strconv.FormatFloat(-n.Val, 'g', -1, 64))
			if !strings.ContainsAny(s, "eE") && !strings.Contains(s[1:], ".") {
				b.WriteString(".0")
			}
			b.WriteString(")")
			return
		}
		b.WriteString(s)
	case *StringLit:
		fmt.Fprintf(b, "%q", n.Val)
	case *BoolLit:
		if n.Val {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case *BottomLit:
		b.WriteString("_|_")
	case *TupleE:
		b.WriteString("(")
		for i, x := range n.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, x, 0)
		}
		b.WriteString(")")
	case *SetE:
		open, close := braces(n.Bag)
		b.WriteString(open)
		for i, x := range n.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, x, 0)
		}
		b.WriteString(close)
	case *ArrayE:
		b.WriteString("[[")
		if n.Dims != nil {
			for i, d := range n.Dims {
				if i > 0 {
					b.WriteString(", ")
				}
				writeExpr(b, d, 0)
			}
			b.WriteString("; ")
		}
		for i, x := range n.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, x, 0)
		}
		b.WriteString("]]")
	case *TabE:
		b.WriteString("[[ ")
		writeExpr(b, n.Head, 0)
		b.WriteString(" | ")
		for j := range n.Idx {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "\\%s < ", n.Idx[j])
			writeExpr(b, n.Bounds[j], 0)
		}
		b.WriteString(" ]]")
	case *Comp:
		open, close := braces(n.Bag)
		b.WriteString(open)
		writeExpr(b, n.Head, 0)
		b.WriteString(" | ")
		for i, q := range n.Quals {
			if i > 0 {
				b.WriteString(", ")
			}
			writeQual(b, q)
		}
		b.WriteString(close)
	case *Fn:
		maybeParen(b, ctx, precAtom, func() {
			b.WriteString("fn ")
			writePat(b, n.Pat)
			b.WriteString(" => ")
			writeExpr(b, n.Body, 0)
		})
	case *Let:
		maybeParen(b, ctx, precAtom, func() {
			b.WriteString("let")
			for _, d := range n.Decls {
				b.WriteString(" val ")
				writePat(b, d.Pat)
				b.WriteString(" = ")
				writeExpr(b, d.E, 0)
			}
			b.WriteString(" in ")
			writeExpr(b, n.Body, 0)
			b.WriteString(" end")
		})
	case *IfE:
		maybeParen(b, ctx, precAtom, func() {
			b.WriteString("if ")
			writeExpr(b, n.Cond, 0)
			b.WriteString(" then ")
			writeExpr(b, n.Then, 0)
			b.WriteString(" else ")
			writeExpr(b, n.Else, 0)
		})
	case *Bin:
		p := binPrec(n.Op)
		maybeParen(b, ctx, p, func() {
			// Left operand at the operator's own level (left-assoc);
			// comparisons are non-associative, so bump both sides.
			lp, rp := p, p+1
			if p == precCmp {
				lp = p + 1
			}
			writeExpr(b, n.L, lp)
			fmt.Fprintf(b, " %s ", n.Op)
			writeExpr(b, n.R, rp)
		})
	case *Not:
		maybeParen(b, ctx, precNot, func() {
			b.WriteString("not ")
			writeExpr(b, n.E, precNot)
		})
	case *AppE:
		maybeParen(b, ctx, precApp, func() {
			writeExpr(b, n.Fn, precApp)
			b.WriteString("!")
			writeExpr(b, n.Arg, precPostfix)
		})
	case *SubE:
		maybeParen(b, ctx, precPostfix, func() {
			writeExpr(b, n.Arr, precPostfix)
			b.WriteString("[")
			for i, x := range n.Indices {
				if i > 0 {
					b.WriteString(", ")
				}
				// An index that itself starts with '[' would lex the
				// opening brackets as the array-literal token `[[`;
				// parenthesize to keep the subscript readable.
				var inner strings.Builder
				writeExpr(&inner, x, 0)
				s := inner.String()
				if strings.HasPrefix(s, "[") {
					b.WriteString("(" + s + ")")
				} else {
					b.WriteString(s)
				}
			}
			b.WriteString("]")
		})
	case *SumMap:
		maybeParen(b, ctx, precApp, func() {
			b.WriteString("summap(")
			writeExpr(b, n.F, 0)
			b.WriteString(")!")
			writeExpr(b, n.Over, precPostfix)
		})
	default:
		fmt.Fprintf(b, "<?%T?>", e)
	}
}

// maybeParen wraps the rendering in parentheses when the node's precedence
// is lower than the context requires. Greedy forms (fn/if/let) always wrap
// in a non-zero context since they extend maximally.
func maybeParen(b *strings.Builder, ctx, prec int, f func()) {
	need := prec < ctx || (prec == precAtom && ctx > 0)
	if need {
		b.WriteString("(")
	}
	f()
	if need {
		b.WriteString(")")
	}
}

// braces are the brackets of a set, or of a bag when bag.
func braces(bag bool) (open, close string) {
	if bag {
		return "{|", "|}"
	}
	return "{", "}"
}

func writeQual(b *strings.Builder, q Qual) {
	switch n := q.(type) {
	case *GenQ:
		writePat(b, n.Pat)
		b.WriteString(" <- ")
		writeExpr(b, n.Src, 0)
	case *ArrGenQ:
		b.WriteString("[")
		writePat(b, n.IdxPat)
		b.WriteString(" : ")
		writePat(b, n.ValPat)
		b.WriteString("] <- ")
		writeExpr(b, n.Src, 0)
	case *BindQ:
		writePat(b, n.Pat)
		b.WriteString(" == ")
		writeExpr(b, n.E, 0)
	case *FilterQ:
		writeExpr(b, n.E, 0)
	default:
		fmt.Fprintf(b, "<?%T?>", q)
	}
}

func writePat(b *strings.Builder, p Pat) {
	switch n := p.(type) {
	case *PVar:
		b.WriteString("\\" + n.Name)
	case *PRef:
		b.WriteString(n.Name)
	case *PWild:
		b.WriteString("_")
	case *PConst:
		writeExpr(b, n.E, precAtom)
	case *PTuple:
		b.WriteString("(")
		for i, sub := range n.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			writePat(b, sub)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<?%T?>", p)
	}
}
