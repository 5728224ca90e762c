package ast

// CountNodes returns the number of nodes in the expression tree — the size
// measure the optimizer trace reports before and after each rewrite, and
// the EXPLAIN summary reports for the whole query.
func CountNodes(e Expr) int {
	if e == nil {
		return 0
	}
	n := 1
	var buf Buf
	kids, _ := Open(e, &buf)
	for _, kid := range kids {
		n += CountNodes(kid)
	}
	return n
}
