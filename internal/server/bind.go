package server

import (
	"fmt"
	"sort"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
)

// bind turns the request's exchange-encoded argument map into the typed
// argument frame of one execution of a parameterized plan: it decodes each
// argument, in name order, and has repl.Bind check the frame against the
// plan's parameter types. All failures are client errors (400), caught before
// any evaluation work happens: an undecodable argument, a placeholder left
// unbound or an argument naming no placeholder are kind "request"; a value
// whose type does not unify with the placeholder's inferred type is kind
// "type". A query without placeholders, sent no arguments, has no frame.
func bind(p *plan, args map[string]string) (map[string]object.Value, *ErrorInfo) {
	if len(p.Params) == 0 && len(args) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(args))
	for name := range args {
		names = append(names, name)
	}
	sort.Strings(names)
	frame := make(map[string]object.Value, len(args))
	for _, name := range names {
		v, err := exchange.ReadString(args[name])
		if err != nil {
			return nil, &ErrorInfo{Kind: "request",
				Message: fmt.Sprintf("argument $%s: %v", name, err)}
		}
		frame[name] = v
	}
	if be := repl.Bind(p.Params, frame); be != nil {
		kind := "request"
		if be.Mismatch {
			kind = "type"
		}
		return nil, &ErrorInfo{Kind: kind, Message: be.Msg}
	}
	return frame, nil
}
