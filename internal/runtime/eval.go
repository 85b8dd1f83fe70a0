package runtime

import (
	"fmt"

	"vxq/internal/item"
)

// Tuple is the evaluator's view of one tuple. Implementations may decode
// fields lazily (frame.LazyTuple decodes a field the first time it is asked
// for and memoizes the result), so evaluators that touch few fields never
// pay for the rest of the tuple.
type Tuple interface {
	// FieldCount reports the number of fields.
	FieldCount() int
	// Field returns the item sequence of field i. The returned sequence
	// must remain valid indefinitely (it never aliases reusable buffers),
	// so evaluators and aggregate states may retain it.
	Field(i int) (item.Sequence, error)
	// RawField returns the encoded bytes of field i (item.EncodeSeq's
	// layout) when the tuple holds them, for evaluation on encoded bytes:
	// a framed field, or a field an ASSIGN appended encoded
	// (frame.LazyTuple.AppendRaw). The bytes alias a frame or the
	// operator's scratch: they are valid only during the current
	// evaluation and must never be retained or returned. ok is false for
	// fields that exist only decoded (SeqTuple) and for columns out of
	// range.
	RawField(i int) ([]byte, bool)
}

// SeqTuple adapts a plain slice of decoded field sequences to the Tuple
// view, for callers that already hold decoded fields.
type SeqTuple []item.Sequence

// FieldCount implements Tuple.
func (s SeqTuple) FieldCount() int { return len(s) }

// Field implements Tuple.
func (s SeqTuple) Field(i int) (item.Sequence, error) {
	if i < 0 || i >= len(s) {
		return nil, columnRangeError(i, s)
	}
	return s[i], nil
}

// RawField implements Tuple: a SeqTuple holds no encoded bytes.
func (s SeqTuple) RawField(int) ([]byte, bool) { return nil, false }

func columnRangeError(col int, tup Tuple) error {
	return fmt.Errorf("runtime: column %d out of range [0,%d)", col, tup.FieldCount())
}

// Evaluator computes an item sequence from one tuple.
//
// Contract (what lets operators reuse scratch across tuples):
//   - Eval must not retain the Tuple itself past the call — the view is
//     rebound to the next tuple by the operator.
//   - The returned sequence must be valid indefinitely: either freshly
//     built, a constant, or obtained from Tuple.Field (whose results are
//     stable by the Tuple contract). It must never alias a buffer the
//     evaluator overwrites on the next call.
//
// Operators rely on both halves: group-by and aggregate states retain
// returned sequences across an entire Push stream, while the evaluation
// context recycles argument scratch between tuples.
type Evaluator interface {
	// Eval evaluates against one tuple.
	Eval(ctx *Ctx, tup Tuple) (item.Sequence, error)
}

// ColumnEval reads tuple field Col.
type ColumnEval struct{ Col int }

// Eval returns the field's sequence.
func (e ColumnEval) Eval(_ *Ctx, tup Tuple) (item.Sequence, error) {
	if e.Col < 0 || e.Col >= tup.FieldCount() {
		return nil, columnRangeError(e.Col, tup)
	}
	return tup.Field(e.Col)
}

// ConstEval yields a constant sequence.
type ConstEval struct{ Seq item.Sequence }

// Eval returns the constant.
func (e ConstEval) Eval(*Ctx, Tuple) (item.Sequence, error) { return e.Seq, nil }

// CallEval applies a scalar function to evaluated arguments.
type CallEval struct {
	Fn   *Function
	Args []Evaluator
}

// Eval evaluates the arguments then applies the function. The argument
// slice is borrowed from the context's scratch stack and returned after the
// call, so steady-state evaluation allocates nothing for argument passing;
// Function.Apply must not retain the slice (retaining the sequences inside
// it is fine — they are stable by the Evaluator contract).
func (e CallEval) Eval(ctx *Ctx, tup Tuple) (item.Sequence, error) {
	args := ctx.borrowArgs(len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(ctx, tup)
		if err != nil {
			ctx.returnArgs(args)
			return nil, err
		}
		args[i] = v
	}
	out, err := e.Fn.Apply(ctx, args)
	ctx.returnArgs(args)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Fn.Name, err)
	}
	return out, nil
}

// Function is a scalar (sequence-to-sequence) function.
//
// Apply receives a borrowed argument slice that is recycled after the call:
// implementations must not retain args (the slice), though they may retain
// or return the item sequences it holds.
type Function struct {
	Name  string
	Arity int // -1 = variadic
	Apply func(ctx *Ctx, args []item.Sequence) (item.Sequence, error)
}

// functions is the scalar function registry, keyed by name.
var functions = map[string]*Function{}

func register(f *Function) *Function {
	if _, dup := functions[f.Name]; dup {
		panic("runtime: duplicate function " + f.Name)
	}
	functions[f.Name] = f
	return f
}

// LookupFunction returns the named scalar function.
func LookupFunction(name string) (*Function, error) {
	f, ok := functions[name]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown function %q", name)
	}
	return f, nil
}

// MustFunction is LookupFunction for trusted callers.
func MustFunction(name string) *Function {
	f, err := LookupFunction(name)
	if err != nil {
		panic(err)
	}
	return f
}
