package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/desugar"
	"github.com/aqldb/aql/internal/env"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/netcdf"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/typecheck"
	"github.com/aqldb/aql/internal/types"
)

// The traced run replays each workload's operations by calling the layers'
// exported functions one after another, with a span around each call. With
// a nil tracer the same code records nothing, and the difference between
// the two is the tracing overhead.

// frontEnd runs scan-to-optimize on one text against e, one span per layer
// under parent, and returns the optimized core query.
func frontEnd(tr *tracer, row string, parent, op int, e *env.Env, text string) (ast.Expr, error) {
	id := tr.begin("parser.parse", row, parent, op)
	se, err := parser.ParseExpr(text)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("desugar.expr", row, parent, op)
	core, err := desugar.Expr(se)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("env.macros", row, parent, op)
	core = e.ExpandMacros(core)
	tr.end(id)
	id = tr.begin("typecheck.infer", row, parent, op)
	_, _, err = typecheck.InferParams(core, e.GlobalTypes())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("opt.optimize", row, parent, op)
	core = e.Optimizer.Optimize(core)
	tr.end(id)
	return core, nil
}

// lower compiles an optimized core query against e's globals.
func lower(tr *tracer, row string, parent, op int, e *env.Env, core ast.Expr) *compile.Program {
	id := tr.begin("lower.program", row, parent, op)
	prog := compile.NewProgram(core, e.Globals(), eval.Limits{})
	tr.end(id)
	return prog
}

// execute runs a program under a span.
func execute(tr *tracer, name, row string, parent, op int, prog *compile.Program, args map[string]object.Value) (object.Value, eval.Counters, error) {
	id := tr.begin(name, row, parent, op)
	v, cnt, err := prog.Execute(context.Background(), compile.ExecOpts{Args: args})
	tr.end(id)
	return v, cnt, err
}

// prepareAll compiles texts against e once, untraced.
func prepareAll(e *env.Env, texts []string) ([]*compile.Program, error) {
	progs := make([]*compile.Program, len(texts))
	for i, text := range texts {
		core, err := frontEnd(nil, "", -1, 0, e, text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", text, err)
		}
		progs[i] = lower(nil, "", -1, 0, e, core)
	}
	return progs, nil
}

// --- dense_compute ----------------------------------------------------------

// denseLayers is dense_compute set up on the layers directly.
type denseLayers struct {
	w     *denseWorkload
	sess  *repl.Session
	progs []*compile.Program
}

func newDenseLayers(w *denseWorkload) (*denseLayers, error) {
	sess, err := repl.New()
	if err != nil {
		return nil, err
	}
	n, m := w.sz.mat, w.sz.stencil
	a, _ := object.Array([]int{n, n}, natCells(w.a))
	b, _ := object.Array([]int{n, n}, natCells(w.b))
	g, _ := object.Array([]int{m, m}, realCells(w.g))
	sess.Env.SetVal("n", object.Nat(int64(n)), types.Nat)
	sess.Env.SetVal("A", a, types.MustParse("[[nat]]_2"))
	sess.Env.SetVal("B", b, types.MustParse("[[nat]]_2"))
	sess.Env.SetVal("G", g, types.MustParse("[[real]]_2"))
	sess.Env.SetVal("V", object.Vector(natCells(w.v)...), types.MustParse("[[nat]]"))
	d := &denseLayers{w: w, sess: sess}
	if d.progs, err = prepareAll(sess.Env, w.texts[:]); err != nil {
		return nil, err
	}
	return d, nil
}

// op is one round: the four programs, each checked against the oracle.
func (d *denseLayers) op(tr *tracer, op int) (time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("op", "dense_compute", -1, op)
	var checks time.Duration
	for c, prog := range d.progs {
		v, _, err := execute(tr, "exec."+denseClasses[c], "dense_compute", root, op, prog, nil)
		if err != nil {
			return 0, err
		}
		c0 := time.Now()
		if err := d.w.check(c, v); err != nil {
			return 0, fmt.Errorf("%s: wrong answer: %w", denseClasses[c], err)
		}
		checks += time.Since(c0)
	}
	tr.end(root)
	return time.Since(t0) - checks, nil
}

// --- plan_cold --------------------------------------------------------------

type planLayers struct {
	sess   *repl.Session
	r      *rng
	serial int
}

func newPlanLayers(seed int64) (*planLayers, error) {
	sess, err := repl.New()
	if err != nil {
		return nil, err
	}
	if err := bindPlanData(sess); err != nil {
		return nil, err
	}
	return &planLayers{sess: sess, r: newRNG(seed, "plan_cold")}, nil
}

// op is one never-seen text through every layer.
func (p *planLayers) op(tr *tracer, op int) (time.Duration, error) {
	q := genPlanQuery(p.r, planFamilies, p.serial)
	p.serial++
	t0 := time.Now()
	root := tr.begin("op", "plan_cold", -1, op)
	core, err := frontEnd(tr, "plan_cold", root, op, p.sess.Env, q.text)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q.family, err)
	}
	prog := lower(tr, "plan_cold", root, op, p.sess.Env, core)
	v, _, err := execute(tr, "exec.query", "plan_cold", root, op, prog, nil)
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q.family, err)
	}
	if err := q.want.check(v); err != nil {
		return 0, fmt.Errorf("%s: wrong answer: %w\n%s", q.family, err, q.text)
	}
	return d, nil
}

// --- ooc_scan ---------------------------------------------------------------

// countingReaderAt wraps the NetCDF file so that the reads the netcdf layer
// issues are counted where they happen.
type countingReaderAt struct {
	f     *os.File
	calls atomic.Int64
	bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.f.ReadAt(p, off)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingReaderAt) Size() int64 {
	fi, err := c.f.Stat()
	if err != nil {
		return -1
	}
	return fi.Size()
}

var _ io.ReaderAt = (*countingReaderAt)(nil)

// oocLayers is ooc_scan set up on the layers directly: the benchmark opens
// the file through a counting reader, supplies the tile cache's Fetch, and
// binds the lazy array itself, so fetch time is a child span and the tile
// layer's own time is separable.
type oocLayers struct {
	w     *oocWorkload
	sess  *repl.Session
	file  *os.File
	rd    *countingReaderAt
	nc    *netcdf.File
	cache *tile.Cache
	arr   *tile.Array
	progs []*compile.Program
	r     *rng

	// Where fetches record their spans: set before each Execute, which
	// starts any worker goroutines after that, and read-only until it
	// returns.
	tr     *tracer // nil when untraced
	parent int     // the execute span that causes the fetches
	opID   int
	row    string

	fetches atomic.Int64
	fetchNS atomic.Int64
}

func newOOCLayers(w *oocWorkload, path string, budget int64) (*oocLayers, error) {
	o := &oocLayers{w: w, r: newRNG(w.seed, "ooc_scan.ops")}
	var err error
	if o.file, err = os.Open(path); err != nil {
		return nil, err
	}
	o.rd = &countingReaderAt{f: o.file}
	if o.nc, err = netcdf.Read(o.rd); err != nil {
		o.file.Close()
		return nil, err
	}
	o.cache = tile.New(tile.Config{TileCells: w.sz.tileCells, Budget: budget})
	size := w.sz.rows * w.sz.cols
	o.arr = o.cache.NewArray(size, o.fetch)
	lazy, err := object.LazyArray([]int{w.sz.rows, w.sz.cols}, o.arr)
	if err != nil {
		o.close()
		return nil, err
	}
	if o.sess, err = repl.New(); err != nil {
		o.close()
		return nil, err
	}
	o.sess.Env.SetVal("W", lazy, types.MustParse("[[real]]_2"))
	if o.progs, err = prepareAll(o.sess.Env, w.texts[:]); err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

// fetch is the benchmark-supplied tile.Fetch: a NetCDF cell-range read,
// then boxing, as the session's own NETCDF reader does.
func (o *oocLayers) fetch(ctx context.Context, start, n int) ([]object.Value, error) {
	t0 := time.Now()
	id := o.tr.begin("tile.fetch", o.row, o.parent, o.opID)
	rid := o.tr.begin("netcdf.read", o.row, id, o.opID)
	vals, err := o.nc.ReadCellRangeCtx(ctx, "v", start, n)
	o.tr.end(rid)
	var cells []object.Value
	if err == nil {
		cells = realCells(vals)
	}
	o.tr.end(id)
	o.fetches.Add(1)
	o.fetchNS.Add(int64(time.Since(t0)))
	return cells, err
}

func (o *oocLayers) close() {
	if o.cache != nil {
		o.cache.Close()
	}
	o.file.Close()
}

// class runs one step of a round (0 seq, 1 slab, 2 strided) under its own
// operation root, so the table has a row per access pattern.
func (o *oocLayers) class(tr *tracer, op, class int) (time.Duration, error) {
	w := o.w
	row := "ooc_scan." + oocClasses[class]
	t0 := time.Now()
	var checks time.Duration
	root := tr.begin("op", row, -1, op)
	run := func(args map[string]object.Value, check func(object.Value) error) error {
		id := tr.begin("exec."+oocClasses[class], row, root, op)
		o.tr, o.parent, o.opID, o.row = tr, id, op, row
		v, _, err := o.progs[class].Execute(context.Background(), compile.ExecOpts{Args: args})
		tr.end(id)
		if err != nil {
			return err
		}
		c0 := time.Now()
		err = check(v)
		checks += time.Since(c0)
		return err
	}
	var err error
	switch class {
	case 0:
		err = run(nil, func(v object.Value) error { return wantReal(v, w.wantSeq) })
	case 1:
		for _, org := range w.origins(o.r, w.sz.windows) {
			c0 := time.Now()
			want := w.wantWindow(org)
			checks += time.Since(c0)
			args := map[string]object.Value{"r": object.Nat(int64(org.r)), "c": object.Nat(int64(org.c))}
			if err = run(args, func(v object.Value) error {
				return wantRealArray(v, []int{w.sz.window, w.sz.window}, want)
			}); err != nil {
				break
			}
		}
	case 2:
		c := o.r.intn(w.sz.cols - w.sz.window + 1)
		err = run(map[string]object.Value{"c": object.Nat(int64(c))},
			func(v object.Value) error { return wantReal(v, w.wantWalk(c)) })
	}
	tr.end(root)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", oocClasses[class], err)
	}
	return time.Since(t0) - checks, nil
}

// op is one full round.
func (o *oocLayers) op(tr *tracer, op int) (time.Duration, error) {
	var total time.Duration
	for class := range oocClasses {
		d, err := o.class(tr, op, class)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// --- serve_mixed ------------------------------------------------------------

// phaseSpan maps aqld's phase names to span names of the layer that did
// the work.
var phaseSpan = map[string]string{
	"parse": "parser.parse", "desugar": "desugar.expr", "macro": "env.macros",
	"typecheck": "typecheck.infer", "optimize": "opt.optimize", "compile": "lower.program",
	"eval": "exec.query",
}

// serveOp sends one request over one connection and records it as spans:
// the client round trip, inside it the server's wall_ns, inside that the
// response's phases. Round trip minus wall_ns is wire, HTTP and encoding;
// wall_ns minus the phases is the server's unattributed time.
func serveOp(tr *tracer, g *loadgen, op int, req *request) outcome {
	row := "serve_mixed." + classNames[req.class]
	root := tr.begin("wire.roundtrip", row, -1, op)
	out, qr := g.sendDecoded(g.clients[0], req)
	tr.end(root)
	if tr != nil && out.err == nil && req.class != classVal {
		srv := tr.add("server.wall", row, root, op, 0, qr.WallNS)
		off := int64(0)
		for _, p := range qr.Phases {
			name, ok := phaseSpan[p.Name]
			if !ok {
				name = "server." + p.Name
			}
			tr.add(name, row, srv, op, off, p.NS)
			off += p.NS
		}
	}
	return out
}
