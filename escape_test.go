package ratel_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// escapePkgs are the packages a training step runs in, built with the
// compiler's escape report by TestHotPathEscapesAreListed.
var escapePkgs = []string{"internal/nn", "internal/tensor", "internal/tensor/pool", "internal/opt", "internal/engine"}

// hotPath is the per-step hot set: by file, the functions a steady-state
// training step runs — "Recv.Method" for a method, the variable's name for a
// package-level declaration (a fan-out's pool.Site).
var hotPath = map[string][]string{
	"internal/nn/attention.go": {"Attention.Forward", "Attention.attend", "heads.forward", "headWindows", "Attention.Backward",
		"Attention.attendBackward", "heads.backward", "headSite", "Attention.forEachHead", "clearAbove"},
	"internal/nn/block.go":     {"Block.Forward", "Block.Recompute", "Block.Backward", "Block.Cache"},
	"internal/nn/dropout.go":   {"Dropout.Active", "Dropout.Apply", "Dropout.Backward", "Dropout.dropped", "counterHash"},
	"internal/nn/layers.go":    {"Linear.Forward", "Linear.Backward", "LayerNorm.Forward", "LayerNorm.rowStats", "LayerNorm.Backward", "LayerNorm.backwardInto"},
	"internal/nn/model.go":     {"Model.SetArena", "Model.NextStep", "Model.Embed", "Model.EmbedBackward", "Model.HeadForward", "Model.HeadBackward", "Model.CrossEntropy"},
	"internal/nn/precision.go": {"roundGrid", "roundGridRow"},
	"internal/tensor/arena.go": {"Arena.New", "Arena.Clone", "Arena.Release", "Arena.Reset"},
	"internal/tensor/half.go":  {"Tensor.RoundFP16InPlace", "RoundFP16Into", "ToFP16BytesInto", "FromFP16Bytes", "ToFP32BytesInto", "FromFP32Bytes"},
	"internal/tensor/tensor.go": {"Tensor.Dims2", "MatMul", "MatMulInto", "Tensor.Window", "Tensor.View", "checkViews", "MatMulView",
		"TMatMulView", "MatMulTView", "product.work", "product.span", "gemm", "gemmSite", "gemmCols", "gemmTiles", "gemmPanels",
		"gemmEdge", "MatMulT", "MatMulTInto", "dotRows", "dotSite", "dotPanel", "TMatMul", "TMatMulInto", "checkDst", "AddInPlace",
		"AddBias", "Tensor.Scale", "GELU", "GELUBackward", "SoftmaxRows", "SoftmaxRow"},
	"internal/tensor/pool/pool.go": {"job.work", "job.join", "job.end", "task.chunk", "Run", "run", "Pool.dispatch", "funcs",
		"Pool.For", "For", "InlineWork"},
	"internal/opt/opt.go": {"AdamStep", "adamSite", "adamWork", "newAdamCoef", "OutOfCoreAdam.BeginStep", "OutOfCoreAdam.stageGrads",
		"chunksOf", "OutOfCoreAdam.adamDelta", "deltaSite", "walk", "skipEscapes", "overlap", "region", "layout", "StateBytes",
		"compact", "tables", "records", "OutOfCoreAdam.pack", "OutOfCoreAdam.lift", "OutOfCoreAdam.seal",
		"OutOfCoreAdam.relayout", "scratch", "loaded"},
	"internal/opt/pipeline.go": {"StatePipeline.Submit", "StatePipeline.Wait", "StatePipeline.run", "StatePipeline.advance",
		"StatePipeline.start", "StatePipeline.update", "StatePipeline.settle", "StatePipeline.settleAll", "StatePipeline.release",
		"OutOfCoreAdam.applyPiece"},
	"internal/engine/arena.go": {"blobArena.hostBuf", "keepBlob", "blobArena.releaseHost", "blobArena.encode", "blobArena.decode"},
	"internal/engine/codec.go": {"cacheTensors", "geometry.shapeCache", "encodeTensors", "decodeTensors"},
	"internal/engine/engine.go": {"stateStore.Start", "Engine.TrainStep", "countTokens", "Engine.TrainStepAccum", "Engine.trainStep",
		"Engine.runStep", "Engine.gradsReady", "Engine.submitUpdate", "Engine.waitStates", "Engine.joinWriteBack", "Engine.optFailed",
		"Engine.finishStep", "Engine.beginStep", "Engine.runBatch", "Engine.abortBatch", "Engine.releaseBlock", "Engine.stashCache",
		"Engine.reviveCache", "Engine.delayGrads"},
	"internal/engine/pipeline.go":  {"actWindow.acquire", "actWindow.start", "actWindow.offload", "actWindow.prefetch", "actWindow.consume", "actWindow.barrier", "actWindow.startStep"},
	"internal/engine/telemetry.go": {"Engine.noteStep", "schedDelta"},
}

// escapeAllow lists the heap escapes the compiler reports in the hot set that
// a steady-state step does not pay, each with its reason: the expressions of
// one function as the escape report prints them, generic shapes elided.
var escapeAllow = []struct {
	fn    string // "file function"
	exprs []string
	why   string
}{
	{"internal/nn/attention.go headSite", []string{"func literal", "&pool.Site{...}"}, siteInit},
	{"internal/tensor/tensor.go gemmSite", []string{"func literal", "&pool.Site{...}"}, siteInit},
	{"internal/tensor/tensor.go dotSite", []string{"func literal", "&pool.Site{...}"}, siteInit},
	{"internal/opt/opt.go adamSite", []string{"func literal", "&pool.Site{...}"}, siteInit},
	{"internal/opt/opt.go deltaSite", []string{"func literal", "&pool.Site{...}"}, siteInit},
	{"internal/tensor/pool/pool.go funcs", []string{"func literal", "&Site{...}"}, siteInit},
	{"internal/tensor/pool/pool.go run", []string{"&task{...}", "&pool.task{...}"}, "a site's record, made only while the site's high-water mark of concurrent runs grows"},
	{"internal/nn/attention.go Attention.forEachHead", []string{"make([]error, tasks)"}, "the layer's errs, grown to the most (batch, head) tasks a call has had"},

	{"internal/tensor/arena.go Arena.New", []string{"&Tensor{...}", "make([]float32, ~r0)", "new(Tensor)"}, "the heap serves a nil arena (no step is in progress) and a step past the arena's capacity, which only the first does"},
	{"internal/tensor/arena.go Arena.Reset", []string{"make([]float32, a.peak)"}, arenaGrowth},
	{"internal/engine/engine.go Engine.runBatch", []string{"make([]float32, tensor.a.peak)"}, arenaGrowth},
	{"internal/engine/engine.go Engine.runBatch", []string{"make([]byte, n)"}, blobOnce},
	{"internal/engine/arena.go blobArena.hostBuf", []string{"make([]byte, n)"}, blobOnce},
	{"internal/engine/arena.go keepBlob", []string{"make([]byte, n)"}, blobOnce},
	{"internal/engine/pipeline.go actWindow.offload", []string{"make([]byte, n)"}, blobOnce},
	{"internal/engine/pipeline.go actWindow.prefetch", []string{"make([]byte, n)"}, blobOnce},
	{"internal/engine/pipeline.go actWindow.consume", []string{"make([]byte, n)"}, blobOnce},
	{"internal/nn/layers.go LayerNorm.backwardInto", []string{"make([]float64, d)"}, "the layer's xhat scratch, allocated by its first backward"},
	{"internal/nn/layers.go Linear.Backward", []string{"&tensor.Tensor{...}", "make([]float32, ~r0)"}, "the layer's weight-gradient scratch, allocated by its first backward"},
	{"internal/opt/opt.go scratch", []string{"make([]uint8, n)", "make([]float32, n)", "make([][3]int, n)", "make([]interface { Done() bool; Notify(chan<- struct {}); Wait() error }, n)"}, scratchGrowth},
	{"internal/opt/opt.go OutOfCoreAdam.adamDelta", []string{"make([]uint8, n)", "make([][3]int, n)"}, scratchGrowth},
	{"internal/opt/opt.go OutOfCoreAdam.lift", []string{"make([]float32, n)", "make([]uint8, n)"}, scratchGrowth},
	{"internal/opt/opt.go OutOfCoreAdam.pack", []string{"make([]uint8, n)"}, scratchGrowth},
	{"internal/opt/opt.go OutOfCoreAdam.relayout", []string{"make([]float32, n)", "make([]uint8, n)"}, scratchGrowth},
	{"internal/opt/opt.go OutOfCoreAdam.seal", []string{"make([]uint8, n)"}, scratchGrowth},

	{"internal/engine/engine.go Engine.abortBatch", []string{"&errors.joinError{...}", "make([]error, 0, errors.n)"}, joinPath},
	{"internal/engine/engine.go Engine.finishStep", []string{"&errors.joinError{...}", "make([]error, 0, errors.n)"}, joinPath},
	{"internal/engine/pipeline.go actWindow.barrier", []string{"&errors.joinError{...}", "make([]error, 0, errors.n)"}, joinPath},
	{"internal/opt/pipeline.go StatePipeline.Submit", []string{"&errors.joinError{...}", "make([]error, 0, errors.n)"}, joinPath},
	{"internal/opt/pipeline.go StatePipeline.Wait", []string{"&errors.joinError{...}", "make([]error, 0, errors.n)"}, joinPath},

	{"internal/engine/codec.go decodeTensors", []string{"off", "len(blob)", "len(blob) - off"}, errorPath},
	{"internal/engine/codec.go encodeTensors", []string{"len(dst)", "off"}, errorPath},
	{"internal/engine/engine.go Engine.runBatch", []string{"i"}, errorPath},
	{"internal/engine/pipeline.go actWindow.consume", []string{"block"}, errorPath},
	{"internal/nn/attention.go Attention.Forward", []string{"a.Name", "n", "d", "batch", "seq", "a.Dim"}, errorPath},
	{"internal/nn/block.go Block.Backward", []string{"b.Name"}, errorPath},
	{"internal/nn/layers.go LayerNorm.Forward", []string{"ln.Name", "n", "d", "ln.dim"}, errorPath},
	{"internal/nn/layers.go LayerNorm.backwardInto", []string{"ln.Name"}, errorPath},
	{"internal/nn/layers.go Linear.Backward", []string{"l.Name"}, errorPath},
	{"internal/nn/layers.go Linear.Forward", []string{"l.Name"}, errorPath},
	{"internal/nn/model.go Model.CrossEntropy", []string{"len(flat)", "n", "tgt"}, errorPath},
	{"internal/nn/model.go Model.Embed", []string{"len(tokens)", "cfg.Batch", "bi", "len(row)", "cfg.Seq", "tok"}, errorPath},
	{"internal/opt/opt.go AdamStep", []string{"len(p32)", "len(m)", "len(v)", "len(grad)", "t"}, errorPath},
	{"internal/opt/opt.go OutOfCoreAdam.stageGrads", []string{"g.Name"}, errorPath},
	{"internal/opt/opt.go loaded", []string{"key"}, errorPath},
	{"internal/opt/opt.go records", []string{"pc.key", "planeNames[p]", "c", "pc.esc[p]", "i", "pc.n"}, errorPath},
	{"internal/opt/opt.go tables", []string{"pc.key", "planeNames[p]", "base"}, errorPath},
	{"internal/opt/pipeline.go StatePipeline.Submit", []string{"g.Name"}, errorPath},
	{"internal/opt/pipeline.go StatePipeline.settle", []string{"pc.piece.key"}, errorPath},
	{"internal/opt/pipeline.go StatePipeline.update", []string{"key"}, errorPath},
	{"internal/tensor/half.go FromFP16Bytes", []string{"len(b)", "len(dst)"}, errorPath},
	{"internal/tensor/half.go FromFP32Bytes", []string{"len(b)", "len(dst)"}, errorPath},
	{"internal/tensor/half.go RoundFP16Into", []string{"len(src)", "len(dst)"}, errorPath},
	{"internal/tensor/half.go ToFP16BytesInto", []string{"len(values)", "len(dst)"}, errorPath},
	{"internal/tensor/half.go ToFP32BytesInto", []string{"len(values)", "len(dst)"}, errorPath},
	{"internal/tensor/tensor.go AddBias", []string{"len(bias.Data)", "n"}, errorPath},
	{"internal/tensor/tensor.go AddInPlace", []string{"len(a.Data)", "len(b.Data)"}, errorPath},
	{"internal/tensor/tensor.go GELUBackward", []string{"len(x.Data)", "len(dy.Data)"}, errorPath},
	{"internal/tensor/tensor.go MatMulInto", []string{"k", "k2"}, errorPath},
	{"internal/tensor/tensor.go MatMulTInto", []string{"k", "k2"}, errorPath},
	{"internal/tensor/tensor.go TMatMulInto", []string{"k", "k2"}, errorPath},
	{"internal/tensor/tensor.go MatMulView", []string{"c.Rows", "c.Cols", "a.Rows", "a.Cols", "b.Rows", "b.Cols"}, errorPath},
	{"internal/tensor/tensor.go TMatMulView", []string{"c.Rows", "c.Cols", "a.Rows", "a.Cols", "b.Rows", "b.Cols"}, errorPath},
	{"internal/tensor/tensor.go MatMulTView", []string{"c.Rows", "c.Cols", "a.Rows", "a.Cols", "b.Rows", "b.Cols"}, errorPath},
	{"internal/tensor/tensor.go Tensor.Dims2", []string{"len(t.Shape)"}, errorPath},
	{"internal/tensor/tensor.go Tensor.Window", []string{`fmt.Sprintf("tensor: window rows [%d,+%d) cols [%d,+%d) of shape %v", ... argument...)`, "row0", "rows", "col0", "cols", "t.Shape"}, "the panic of a window outside its tensor"},
	{"internal/tensor/tensor.go checkDst", []string{"op", "cm", "cn", "m", "n"}, errorPath},
	{"internal/tensor/tensor.go checkViews", []string{"op", "v.Rows", "v.Cols", "v.Stride", "len(v.Data)", "tri.Rows", "tri.Cols"}, errorPath},
}

// The reasons escapeAllow gives most often.
const (
	siteInit      = "the site and its static body, made once at package initialisation"
	arenaGrowth   = "the step arena's buffer, allocated when a step outgrows its capacity, which only the first step does"
	blobOnce      = "the owner's activation blob, allocated on its first use (keepBlob) and reused by every later step"
	scratchGrowth = "the optimizer's scratch, grown to its high-water mark (scratch); steps of the same shapes reuse it"
	joinPath      = "errors.Join allocates only when it joins an error: a step that succeeds joins none"
	errorPath     = "error path: the operands of the error returned when the check fails"
)

// TestHotPathEscapesAreListed builds the step's packages with the compiler's
// escape report (-gcflags=-m) and fails on any heap escape — an escaping
// func literal, a make or composite literal, a boxed operand, a variable
// moved to the heap — inside a hot-set function that escapeAllow does not
// list, on an allow-list entry that matches no report, and on a hot-set name
// that is no function of its file. TestStepAllocsIndependentOfDepth measures
// what a step allocates on the shapes it runs; this sees a closure at a
// fan-out, or a per-call allocation, on any shape, before it runs.
func TestHotPathEscapesAreListed(t *testing.T) {
	fset, files := moduleSources(t) // read every file, so an edit reruns the test
	byPath := map[string]*ast.File{}
	for _, s := range files {
		byPath[s.path] = s.f
	}
	args := []string{"build"}
	for _, p := range escapePkgs {
		args = append(args, "-gcflags=ratel/"+p+"=-m")
	}
	for _, p := range escapePkgs {
		args = append(args, "./"+p)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	hot := map[string]bool{}
	for file, fns := range hotPath {
		f := byPath[file]
		if f == nil {
			t.Errorf("hotPath: no file %s", file)
			continue
		}
		declared := map[string]bool{}
		for _, d := range f.Decls {
			for _, name := range declNames(d) {
				declared[name] = true
			}
		}
		for _, fn := range fns {
			if !declared[fn] {
				t.Errorf("hotPath: %s declares no %s", file, fn)
			}
			hot[file+" "+fn] = true
		}
	}
	allowed := map[string]string{} // "file function: expr" -> why
	for _, a := range escapeAllow {
		if !hot[a.fn] {
			t.Errorf("escapeAllow: %s is not in the hot set", a.fn)
		}
		for _, x := range a.exprs {
			allowed[a.fn+": "+x] = a.why
		}
	}

	report := regexp.MustCompile(`^(internal/[^:]+\.go):(\d+):(\d+): (.*)$`)
	used := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := report.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		expr, ok := strings.CutSuffix(m[4], " escapes to heap")
		if !ok && !strings.HasPrefix(m[4], "moved to heap: ") {
			continue
		}
		if !ok {
			expr = m[4]
		}
		f := byPath[m[1]]
		if f == nil {
			t.Fatalf("escape report names %s, which the module walk did not parse", m[1])
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		fn := enclosingDecl(fset, f, line, col)
		if !hot[m[1]+" "+fn] {
			continue
		}
		key := m[1] + " " + fn + ": " + unshape(expr)
		if _, ok := allowed[key]; !ok {
			if !used[key] {
				t.Errorf("%s:%s:%s: %s: %s escapes to heap in the step's hot path: remove it, or list it in escapeAllow with the reason a step does not pay it", m[1], m[2], m[3], fn, unshape(expr))
			}
		}
		used[key] = true
	}
	for key := range allowed {
		if !used[key] {
			t.Errorf("escapeAllow lists %q, which the escape report no longer has", key)
		}
	}
}

// declNames are the hot-set names d declares: a function's (Recv.Name for a
// method) or a var declaration's.
func declNames(d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []string{d.Name.Name}
		}
		t := d.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok {
			t = ix.X
		}
		return []string{fmt.Sprint(t) + "." + d.Name.Name}
	case *ast.GenDecl:
		var names []string
		for _, s := range d.Specs {
			if v, ok := s.(*ast.ValueSpec); ok {
				for _, n := range v.Names {
					names = append(names, n.Name)
				}
			}
		}
		return names
	}
	return nil
}

// enclosingDecl is the name of the declaration of f at line:col (1-based,
// bytes), "" outside every function and var declaration.
func enclosingDecl(fset *token.FileSet, f *ast.File, line, col int) string {
	tf := fset.File(f.Pos())
	if line > tf.LineCount() {
		return ""
	}
	pos := tf.LineStart(line) + token.Pos(col-1)
	for _, d := range f.Decls {
		if d.Pos() <= pos && pos < d.End() {
			names := declNames(d)
			if len(names) == 1 {
				return names[0]
			}
		}
	}
	return ""
}

// unshape drops the generic shapes from an escape report's expression:
// "&pool.task[go.shape.struct { ... }]{...}" is "&pool.task{...}", and
// "make([]go.shape.uint8, n)" is "make([]uint8, n)".
func unshape(expr string) string {
	for {
		i := strings.Index(expr, "[go.shape.")
		if i < 0 {
			return strings.ReplaceAll(expr, "go.shape.", "")
		}
		depth, j := 0, i
		for ; j < len(expr); j++ {
			if expr[j] == '[' {
				depth++
			} else if expr[j] == ']' {
				if depth--; depth == 0 {
					break
				}
			}
		}
		expr = expr[:i] + expr[min(j+1, len(expr)):]
	}
}
