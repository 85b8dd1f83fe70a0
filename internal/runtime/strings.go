package runtime

import (
	"fmt"
	"math"
	"strings"

	"vxq/internal/item"
)

// String and numeric function library (XQuery F&O subset). All functions
// follow XQuery value semantics: an empty argument yields the empty
// sequence for the value-typed functions; string functions treat an empty
// argument as the empty string.

// stringValue renders a scalar item as its string value.
func stringValue(it item.Item) (string, error) {
	switch x := it.(type) {
	case item.String:
		return string(x), nil
	case item.Number:
		return item.JSON(x), nil
	case item.Bool:
		if x {
			return "true", nil
		}
		return "false", nil
	case item.Null:
		return "null", nil
	case item.DateTime:
		return x.String(), nil
	default:
		return "", fmt.Errorf("no string value for a %s", it.Kind())
	}
}

// optString extracts the string value of an optional singleton argument;
// an empty sequence is the empty string (XQuery's fn:string-join-like
// laxity for string arguments).
func optString(s item.Sequence) (string, error) {
	if len(s) == 0 {
		return "", nil
	}
	it, err := s.One()
	if err != nil {
		return "", err
	}
	return stringValue(it)
}

// FnString is fn:string: the string value of the argument ("" for empty).
var FnString = register(&Function{
	Name:  "string",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		s, err := optString(args[0])
		if err != nil {
			return nil, err
		}
		return item.Single(item.String(s)), nil
	},
})

// FnConcat is fn:concat over any number of arguments.
var FnConcat = register(&Function{
	Name:  "concat",
	Arity: -1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		var b strings.Builder
		for _, a := range args {
			s, err := optString(a)
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return item.Single(item.String(b.String())), nil
	},
})

// FnStringLength is fn:string-length (in runes).
var FnStringLength = register(&Function{
	Name:  "string-length",
	Arity: 1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		s, err := optString(args[0])
		if err != nil {
			return nil, err
		}
		return item.Single(item.Number(len([]rune(s)))), nil
	},
})

// FnSubstring is fn:substring(s, start[, length]) with XQuery's 1-based
// rounding semantics.
var FnSubstring = register(&Function{
	Name:  "substring",
	Arity: -1,
	Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("substring expects 2 or 3 arguments, got %d", len(args))
		}
		s, err := optString(args[0])
		if err != nil {
			return nil, err
		}
		start, err := numberArg(args[1])
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		length := math.Inf(1)
		if len(args) == 3 {
			if length, err = numberArg(args[2]); err != nil {
				return nil, err
			}
		}
		// XQuery: characters at positions p with
		// round(start) <= p < round(start) + round(length).
		from := int(math.Round(start))
		var to int
		if math.IsInf(length, 1) {
			to = len(runes) + 1
		} else {
			to = from + int(math.Round(length))
		}
		if from < 1 {
			from = 1
		}
		if to > len(runes)+1 {
			to = len(runes) + 1
		}
		if from >= to {
			return item.Single(item.String("")), nil
		}
		return item.Single(item.String(string(runes[from-1 : to-1]))), nil
	},
})

func numberArg(s item.Sequence) (float64, error) {
	it, err := s.One()
	if err != nil {
		return 0, err
	}
	n, ok := it.(item.Number)
	if !ok {
		return 0, fmt.Errorf("expected number, got %s", it.Kind())
	}
	return float64(n), nil
}

func stringPredicate(name string, pred func(s, sub string) bool) *Function {
	return register(&Function{
		Name:  name,
		Arity: 2,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			s, err := optString(args[0])
			if err != nil {
				return nil, err
			}
			sub, err := optString(args[1])
			if err != nil {
				return nil, err
			}
			return item.Single(item.Bool(pred(s, sub))), nil
		},
	})
}

// String predicates.
var (
	FnContains   = stringPredicate("contains", strings.Contains)
	FnStartsWith = stringPredicate("starts-with", strings.HasPrefix)
	FnEndsWith   = stringPredicate("ends-with", strings.HasSuffix)
)

func stringMapper(name string, f func(string) string) *Function {
	return register(&Function{
		Name:  name,
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			s, err := optString(args[0])
			if err != nil {
				return nil, err
			}
			return item.Single(item.String(f(s))), nil
		},
	})
}

// String transformations.
var (
	FnUpperCase = stringMapper("upper-case", strings.ToUpper)
	FnLowerCase = stringMapper("lower-case", strings.ToLower)
)

func numericMapper(name string, f func(float64) float64) *Function {
	return register(&Function{
		Name:  name,
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			if len(args[0]) == 0 {
				return nil, nil
			}
			n, err := numberArg(args[0])
			if err != nil {
				return nil, err
			}
			return item.Single(item.Number(f(n))), nil
		},
	})
}

// Numeric functions.
var (
	FnAbs     = numericMapper("abs", math.Abs)
	FnFloor   = numericMapper("floor", math.Floor)
	FnCeiling = numericMapper("ceiling", math.Ceil)
	FnRound   = numericMapper("round", math.Round)
)

// Sequence predicates and folds.
var (
	// FnExists is fn:exists.
	FnExists = register(&Function{
		Name:  "exists",
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			return item.Single(item.Bool(len(args[0]) > 0)), nil
		},
	})
	// FnEmpty is fn:empty.
	FnEmpty = register(&Function{
		Name:  "empty",
		Arity: 1,
		Apply: func(_ *Ctx, args []item.Sequence) (item.Sequence, error) {
			return item.Single(item.Bool(len(args[0]) == 0)), nil
		},
	})
)
