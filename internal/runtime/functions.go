package runtime

import (
	"fmt"
	"io"
	"math"

	"vxq/internal/item"
	"vxq/internal/jsonparse"
)

// Scalar function library. All navigation functions follow the JSONiq
// extension to XQuery semantics, mapped implicitly over sequences: applying
// a navigation step to a sequence applies it to every item and concatenates
// the results; items of non-matching kinds contribute the empty sequence.

// FnValue is the JSONiq value expression: obj("key") / arr(i).
var FnValue = register(&Function{
	Name:  "value",
	Arity: 2,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		var out item.Sequence
		for _, it := range args[0] {
			switch x := it.(type) {
			case *item.Object:
				for _, key := range args[1] {
					if ks, ok := key.(item.String); ok {
						if v := x.Value(string(ks)); v != nil {
							out = append(out, v)
						}
					}
				}
			case item.Array:
				for _, key := range args[1] {
					if n, ok := key.(item.Number); ok {
						i := int(n)
						if i >= 1 && i <= len(x) {
							out = append(out, x[i-1])
						}
					}
				}
			}
		}
		return out, nil
	},
})

// FnKeysOrMembers is the JSONiq keys-or-members expression: x().
var FnKeysOrMembers = register(&Function{
	Name:  "keys-or-members",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		return jsonparse.ApplyStep(args[0], jsonparse.MembersStep()), nil
	},
})

// FnIterate is the UNNEST iterate expression: the identity on sequences.
// The UNNEST operator splits the resulting sequence into one tuple per item.
var FnIterate = register(&Function{
	Name:  "iterate",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		return args[0], nil
	},
})

// FnData is fn:data — atomization. Scalars atomize to themselves; objects
// and arrays have no typed value.
var FnData = register(&Function{
	Name:  "data",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		out := make(item.Sequence, 0, len(args[0]))
		for _, it := range args[0] {
			switch it.Kind() {
			case item.KindObject, item.KindArray:
				return nil, fmt.Errorf("cannot atomize a %s", it.Kind())
			}
			out = append(out, it)
		}
		return out, nil
	},
})

// FnPromote is the type-promotion expression inserted by the translator;
// it is a checked identity (removed by the path expression rules).
var FnPromote = register(&Function{
	Name:  "promote",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		return args[0], nil
	},
})

// FnTreat is the treat-as-type expression inserted by the translator; with
// type item it is an identity (removed by the group-by rules).
var FnTreat = register(&Function{
	Name:  "treat",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		return args[0], nil
	},
})

// FnDateTime constructs an xs:dateTime from its string representation.
var FnDateTime = register(&Function{
	Name:  "dateTime",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		var out item.Sequence
		for _, it := range args[0] {
			s, ok := it.(item.String)
			if !ok {
				return nil, fmt.Errorf("expected string, got %s", it.Kind())
			}
			d, err := item.ParseDateTime(string(s))
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	},
})

func dateComponent(name string, get func(item.DateTime) int) *Function {
	return register(&Function{
		Name:  name,
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			var out item.Sequence
			for _, it := range args[0] {
				d, ok := it.(item.DateTime)
				if !ok {
					return nil, fmt.Errorf("expected dateTime, got %s", it.Kind())
				}
				out = append(out, item.Number(get(d)))
			}
			return out, nil
		},
	})
}

// Date component extractors.
var (
	FnYearFromDateTime  = dateComponent("year-from-dateTime", func(d item.DateTime) int { return d.Year })
	FnMonthFromDateTime = dateComponent("month-from-dateTime", func(d item.DateTime) int { return d.Month })
	FnDayFromDateTime   = dateComponent("day-from-dateTime", func(d item.DateTime) int { return d.Day })
)

// comparisons maps each value comparison's name to the outcome test it
// applies to item.Compare's result (CompareEval reuses it).
var comparisons = map[string]func(c int) bool{}

func comparison(name string, ok func(c int) bool) *Function {
	comparisons[name] = ok
	return register(&Function{
		Name:  name,
		Arity: 2,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			// Value comparison: empty operand yields the empty sequence.
			if len(args[0]) == 0 || len(args[1]) == 0 {
				return nil, nil
			}
			a, err := args[0].One()
			if err != nil {
				return nil, err
			}
			b, err := args[1].One()
			if err != nil {
				return nil, err
			}
			if a.Kind() != b.Kind() {
				return nil, fmt.Errorf("cannot compare %s with %s", a.Kind(), b.Kind())
			}
			switch a.Kind() {
			case item.KindNumber, item.KindString, item.KindBool, item.KindDateTime:
				return item.Single(item.Bool(ok(item.Compare(a, b)))), nil
			default:
				return nil, fmt.Errorf("cannot compare %s values", a.Kind())
			}
		},
	})
}

// Value comparisons.
var (
	FnEq = comparison("eq", func(c int) bool { return c == 0 })
	FnNe = comparison("ne", func(c int) bool { return c != 0 })
	FnLt = comparison("lt", func(c int) bool { return c < 0 })
	FnLe = comparison("le", func(c int) bool { return c <= 0 })
	FnGt = comparison("gt", func(c int) bool { return c > 0 })
	FnGe = comparison("ge", func(c int) bool { return c >= 0 })
)

// Boolean connectives over effective boolean values.
var (
	FnAnd = register(&Function{
		Name:  "and",
		Arity: -1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			for _, a := range args {
				if !item.EffectiveBoolean(a) {
					return item.Single(item.Bool(false)), nil
				}
			}
			return item.Single(item.Bool(true)), nil
		},
	})
	FnOr = register(&Function{
		Name:  "or",
		Arity: -1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			for _, a := range args {
				if item.EffectiveBoolean(a) {
					return item.Single(item.Bool(true)), nil
				}
			}
			return item.Single(item.Bool(false)), nil
		},
	})
	FnNot = register(&Function{
		Name:  "not",
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			return item.Single(item.Bool(!item.EffectiveBoolean(args[0]))), nil
		},
	})
	// FnBoolean computes the effective boolean value explicitly.
	FnBoolean = register(&Function{
		Name:  "boolean",
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			return item.Single(item.Bool(item.EffectiveBoolean(args[0]))), nil
		},
	})
)

func arithmetic(name string, op func(a, b float64) (float64, error)) *Function {
	return register(&Function{
		Name:  name,
		Arity: 2,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			if len(args[0]) == 0 || len(args[1]) == 0 {
				return nil, nil
			}
			a, err := args[0].One()
			if err != nil {
				return nil, err
			}
			b, err := args[1].One()
			if err != nil {
				return nil, err
			}
			an, aok := a.(item.Number)
			bn, bok := b.(item.Number)
			if !aok || !bok {
				return nil, fmt.Errorf("arithmetic on %s and %s", a.Kind(), b.Kind())
			}
			r, err := op(float64(an), float64(bn))
			if err != nil {
				return nil, err
			}
			return item.Single(item.Number(r)), nil
		},
	})
}

// Arithmetic operators.
var (
	FnAdd = arithmetic("add", func(a, b float64) (float64, error) { return a + b, nil })
	FnSub = arithmetic("sub", func(a, b float64) (float64, error) { return a - b, nil })
	FnMul = arithmetic("mul", func(a, b float64) (float64, error) { return a * b, nil })
	FnDiv = arithmetic("div", func(a, b float64) (float64, error) {
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	})
	FnMod = arithmetic("mod", func(a, b float64) (float64, error) {
		if b == 0 {
			return 0, fmt.Errorf("modulo by zero")
		}
		return math.Mod(a, b), nil
	})
)

// aggFold registers the scalar function name as one step of agg over its
// materialized argument, so the scalar form (what the unoptimized plan
// evaluates) and the incremental aggregate the group-by rules convert it to
// share one definition and cannot disagree.
func aggFold(name string, agg *AggFunc) *Function {
	return register(&Function{
		Name:  name,
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			st := agg.New()
			if err := st.Step(args[0]); err != nil {
				return nil, err
			}
			return st.Finish()
		},
	})
}

// Scalar folds over materialized sequences.
var (
	FnCount = aggFold("count", AggCount)
	FnSum   = aggFold("sum", AggSum)
	FnAvg   = aggFold("avg", AggAvg)
	FnMin   = aggFold("min", AggMin)
	FnMax   = aggFold("max", AggMax)
)

// FnCollection reads and parses every file of a collection, returning the
// sequence of its files' top-level values — one per document, or one per
// record of an NDJSON file, exactly what DATASCAN emits. This is the
// unoptimized evaluation of the collection expression (§4.2, Fig. 5): the
// whole collection materializes into a single tuple field. The pipelining
// rules replace it with DATASCAN.
var FnCollection = register(&Function{
	Name:  "collection",
	Arity: 1,
	Apply: func(ctx *Ctx, args []item.Sequence) (item.Sequence, error) {
		name, err := singletonString(args[0])
		if err != nil {
			return nil, err
		}
		if ctx == nil || ctx.Source == nil {
			return nil, fmt.Errorf("no data source configured")
		}
		files, err := ctx.Source.Files(name)
		if err != nil {
			return nil, err
		}
		var out item.Sequence
		for _, f := range files {
			err := readFile(ctx, f, func(r io.Reader) error {
				lx := jsonparse.NewStreamLexer(r, jsonparse.DefaultChunkSize)
				_, err := jsonparse.ScanValues(lx, nil, -1, func(it item.Item) error {
					out = append(out, it)
					return nil
				})
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		if ctx.Accountant != nil {
			ctx.Accountant.Allocate(item.SizeBytesSeq(out))
			defer ctx.Accountant.Release(item.SizeBytesSeq(out))
		}
		return out, nil
	},
})

// FnJSONDoc reads and parses a file holding a single JSON document.
var FnJSONDoc = register(&Function{
	Name:  "json-doc",
	Arity: 1,
	Apply: func(ctx *Ctx, args []item.Sequence) (item.Sequence, error) {
		path, err := singletonString(args[0])
		if err != nil {
			return nil, err
		}
		if ctx == nil || ctx.Source == nil {
			return nil, fmt.Errorf("no data source configured")
		}
		var doc item.Item
		err = readFile(ctx, path, func(r io.Reader) (err error) {
			doc, err = jsonparse.ParseReader(r, jsonparse.DefaultChunkSize)
			return err
		})
		if err != nil {
			return nil, err
		}
		return item.Single(doc), nil
	},
})

// readFile opens path, hands its contents to parse and counts the bytes read;
// a parse error is prefixed with the path.
func readFile(ctx *Ctx, path string, parse func(io.Reader) error) error {
	rc, err := ctx.Source.Open(path)
	if err != nil {
		// Both Source implementations name the file in their open errors.
		return err
	}
	cr := &CountingReader{R: rc}
	err = parse(cr)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if ctx.Stats != nil {
		ctx.Stats.BytesRead += cr.N
		ctx.Stats.FilesRead++
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func singletonString(s item.Sequence) (string, error) {
	it, err := s.One()
	if err != nil {
		return "", err
	}
	str, ok := it.(item.String)
	if !ok {
		return "", fmt.Errorf("expected string, got %s", it.Kind())
	}
	return string(str), nil
}

// FnObject is the JSONiq object constructor: object(k1, v1, k2, v2, ...).
// Keys must be singleton strings; an empty value becomes null (JSONiq's
// null-on-empty constructor behaviour).
var FnObject = register(&Function{
	Name:  "object",
	Arity: -1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		if len(args)%2 != 0 {
			return nil, fmt.Errorf("object constructor needs key/value pairs")
		}
		keys := make([]string, 0, len(args)/2)
		vals := make([]item.Item, 0, len(args)/2)
		for i := 0; i < len(args); i += 2 {
			k, err := args[i].One()
			if err != nil {
				return nil, fmt.Errorf("object key: %w", err)
			}
			ks, ok := k.(item.String)
			if !ok {
				return nil, fmt.Errorf("object key must be a string, got %s", k.Kind())
			}
			var v item.Item = item.Null{}
			switch len(args[i+1]) {
			case 0:
			case 1:
				v = args[i+1][0]
			default:
				return nil, fmt.Errorf("object value for %q is a sequence of %d items", ks, len(args[i+1]))
			}
			keys = append(keys, string(ks))
			vals = append(vals, v)
		}
		obj, err := item.NewObject(keys, vals)
		if err != nil {
			return nil, err
		}
		return item.Single(obj), nil
	},
})

// FnArray is the JSONiq array constructor: array(e1, e2, ...) concatenates
// every argument's items into one array.
var FnArray = register(&Function{
	Name:  "array",
	Arity: -1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		var arr item.Array
		for _, a := range args {
			arr = append(arr, a...)
		}
		if arr == nil {
			arr = item.Array{}
		}
		return item.Single(arr), nil
	},
})
