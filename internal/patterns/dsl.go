package patterns

// This file implements the data-pattern DSL the paper proposes in §V
// ("Such a power model would take in different data patterns as inputs
// (e.g., specified via a domain-specific language)"). A pattern string
// is a pipeline of stages separated by '|':
//
//	gaussian(mean=0, std=210) | sort(rows, 50%) | sparsify(30%)
//
// Stages:
//
//	gaussian(mean=M, std=S)      Gaussian fill
//	gaussian(default)            paper default per dtype
//	constant(V) | constant(random[, mean=M, std=S])
//	set(n=N, mean=M, std=S)      draw from an N-value Gaussian set
//	flip(P)                      independent bit flips with prob P
//	randlsb(N) / randmsb(N)      randomize N least/most significant bits
//	sort(rows|cols|withinrows, PCT%)
//	sparsify(PCT%)
//	zerolsb(N) / zeromsb(N)
//
// Numbers accept a '%' suffix meaning value/100 and must be finite.
// Arguments may be positional or key=value.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseError describes a DSL syntax or semantic error.
type ParseError struct {
	Input string
	Stage string
	Msg   string
}

// Error formats the failure with the offending input and stage.
func (e *ParseError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("patterns: %s in stage %q of %q", e.Msg, e.Stage, e.Input)
	}
	return fmt.Sprintf("patterns: %s in %q", e.Msg, e.Input)
}

type stage struct {
	name string
	pos  []string          // positional arguments
	kv   map[string]string // key=value arguments
}

// Parse compiles a pattern pipeline string into a Pattern.
func Parse(input string) (Pattern, error) {
	parts := strings.Split(input, "|")
	var stages []stage
	for _, part := range parts {
		st, err := parseStage(strings.TrimSpace(part))
		if err != nil {
			return Pattern{}, &ParseError{Input: input, Stage: part, Msg: err.Error()}
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		return Pattern{}, &ParseError{Input: input, Msg: "empty pipeline"}
	}

	base, err := buildBase(stages[0])
	if err != nil {
		return Pattern{}, &ParseError{Input: input, Stage: stages[0].name, Msg: err.Error()}
	}
	p := base
	for _, st := range stages[1:] {
		p, err = applyStage(p, st)
		if err != nil {
			return Pattern{}, &ParseError{Input: input, Stage: st.name, Msg: err.Error()}
		}
	}
	return p, nil
}

// Canonicalize parses a pattern string and returns its canonical
// spelling (the parsed Pattern's Name), so that pipelines differing
// only in whitespace, case, or argument style ("50%" vs "frac=0.5")
// map to the same string — the property cache keys need.
func Canonicalize(input string) (string, error) {
	p, err := Parse(input)
	if err != nil {
		return "", err
	}
	return p.Name, nil
}

// MustParse is Parse that panics on error, for static pattern literals.
func MustParse(input string) Pattern {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

func parseStage(s string) (stage, error) {
	if s == "" {
		return stage{}, fmt.Errorf("empty stage")
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return stage{name: strings.ToLower(strings.TrimSpace(s)), kv: map[string]string{}}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return stage{}, fmt.Errorf("missing closing parenthesis")
	}
	st := stage{name: strings.ToLower(strings.TrimSpace(s[:open])), kv: map[string]string{}}
	if st.name == "" {
		return stage{}, fmt.Errorf("missing stage name")
	}
	argStr := s[open+1 : len(s)-1]
	if strings.TrimSpace(argStr) == "" {
		return st, nil
	}
	for _, arg := range strings.Split(argStr, ",") {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			return stage{}, fmt.Errorf("empty argument")
		}
		if eq := strings.IndexByte(arg, '='); eq >= 0 {
			key := strings.ToLower(strings.TrimSpace(arg[:eq]))
			val := strings.TrimSpace(arg[eq+1:])
			if key == "" || val == "" {
				return stage{}, fmt.Errorf("malformed key=value argument %q", arg)
			}
			st.kv[key] = val
		} else {
			st.pos = append(st.pos, arg)
		}
	}
	return st, nil
}

// number parses a finite numeric literal, honoring a '%' suffix. NaN
// and ±Inf are rejected: every range check downstream is false for
// NaN, so one would reach the transforms unchecked.
func number(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	if pct {
		s = strings.TrimSuffix(s, "%")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// numArg fetches a named or positional numeric argument.
func (st stage) numArg(key string, pos int, def float64, required bool) (float64, error) {
	if v, ok := st.kv[key]; ok {
		return number(v)
	}
	if pos >= 0 && pos < len(st.pos) {
		return number(st.pos[pos])
	}
	if required {
		return 0, fmt.Errorf("missing argument %q", key)
	}
	return def, nil
}

func buildBase(st stage) (Pattern, error) {
	switch st.name {
	case "gaussian":
		if len(st.pos) == 1 && strings.EqualFold(st.pos[0], "default") {
			return GaussianDefault(), nil
		}
		mean, err := st.numArg("mean", 0, 0, false)
		if err != nil {
			return Pattern{}, err
		}
		std, err := st.numArg("std", 1, 1, false)
		if err != nil {
			return Pattern{}, err
		}
		if std < 0 {
			return Pattern{}, fmt.Errorf("std must be non-negative")
		}
		return Gaussian(mean, std), nil
	case "constant":
		if len(st.pos) >= 1 && strings.EqualFold(st.pos[0], "random") {
			mean, err := st.numArg("mean", -1, 0, false)
			if err != nil {
				return Pattern{}, err
			}
			std, err := st.numArg("std", -1, 210, false)
			if err != nil {
				return Pattern{}, err
			}
			return ConstantRandom(mean, std), nil
		}
		v, err := st.numArg("value", 0, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		return Constant(v), nil
	case "set":
		nf, err := st.numArg("n", 0, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		if nf < 1 || nf > math.MaxInt32 {
			return Pattern{}, fmt.Errorf("set size out of [1,%d]", math.MaxInt32)
		}
		mean, err := st.numArg("mean", 1, 0, false)
		if err != nil {
			return Pattern{}, err
		}
		std, err := st.numArg("std", 2, 210, false)
		if err != nil {
			return Pattern{}, err
		}
		return FromSet(int(nf), mean, std), nil
	case "uniform":
		lo, err := st.numArg("lo", 0, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		hi, err := st.numArg("hi", 1, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		if hi <= lo {
			return Pattern{}, fmt.Errorf("uniform requires hi > lo")
		}
		return Uniform(lo, hi), nil
	default:
		return Pattern{}, fmt.Errorf("unknown base pattern %q", st.name)
	}
}

func applyStage(p Pattern, st stage) (Pattern, error) {
	switch st.name {
	case "flip":
		prob, err := st.numArg("p", 0, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		if prob < 0 || prob > 1 {
			return Pattern{}, fmt.Errorf("flip probability out of [0,1]")
		}
		return p.BitFlips(prob), nil
	case "randlsb", "randmsb", "zerolsb", "zeromsb":
		nf, err := st.numArg("n", 0, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		n := int(nf)
		if n < 0 {
			return Pattern{}, fmt.Errorf("bit count must be non-negative")
		}
		switch st.name {
		case "randlsb":
			return p.RandomLSBs(n), nil
		case "randmsb":
			return p.RandomMSBs(n), nil
		case "zerolsb":
			return p.ZeroLSBs(n), nil
		default:
			return p.ZeroMSBs(n), nil
		}
	case "sort":
		if len(st.pos) < 1 {
			return Pattern{}, fmt.Errorf("sort requires a kind (rows|cols|withinrows)")
		}
		kind := SortKind(strings.ToLower(st.pos[0]))
		if _, ok := placements[kind]; !ok {
			return Pattern{}, fmt.Errorf("unknown sort kind %q", st.pos[0])
		}
		frac, err := st.numArg("frac", 1, 1, false)
		if err != nil {
			return Pattern{}, err
		}
		if frac < 0 || frac > 1 {
			return Pattern{}, fmt.Errorf("sort fraction out of [0,1]")
		}
		return p.Sorted(kind, frac), nil
	case "sparsify":
		frac, err := st.numArg("frac", 0, 0, true)
		if err != nil {
			return Pattern{}, err
		}
		if frac < 0 || frac > 1 {
			return Pattern{}, fmt.Errorf("sparsity out of [0,1]")
		}
		return p.Sparse(frac), nil
	default:
		return Pattern{}, fmt.Errorf("unknown transform %q", st.name)
	}
}
