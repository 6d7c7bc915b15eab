package workflow

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseDSL parses the workflow definition language, a line-oriented
// rendering of the paper's Figure 7 declaration:
//
//	# WordCount: FOREACH fan-out, MERGE fan-in
//	workflow wordcount
//
//	function start
//	  input src from $USER
//	  output filelist type FOREACH to count.file
//
//	function count
//	  input file
//	  output result type MERGE to merge.counts
//
//	function merge
//	  input counts type LIST
//	  output out to $USER
//
// Rules:
//   - `workflow <name>` must appear once, before any function.
//   - `function <name>` opens a function block.
//   - `input <name> [type NORMAL|LIST] [from $USER]` declares an input.
//   - `output <name> [type NORMAL|FOREACH|MERGE|SWITCH] to <dest>[, <dest>…]`
//     declares an output; dest is `function.input` or `$USER`.
//   - `#` starts a comment; blank lines and indentation are insignificant.
//
// The parsed workflow is validated before being returned.
func ParseDSL(r io.Reader) (*Workflow, error) {
	var w *Workflow
	var cur *Function
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("dsl line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	flush := func() error {
		if cur == nil {
			return nil
		}
		if err := w.AddFunction(cur); err != nil {
			return fail("%v", err)
		}
		cur = nil
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "workflow":
			if w != nil {
				return nil, fail("duplicate workflow declaration")
			}
			if len(fields) != 2 {
				return nil, fail("usage: workflow <name>")
			}
			w = New(fields[1])
		case "function":
			if w == nil {
				return nil, fail("function before workflow declaration")
			}
			if len(fields) != 2 {
				return nil, fail("usage: function <name>")
			}
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &Function{Name: fields[1]}
		case "input":
			if cur == nil {
				return nil, fail("input outside function block")
			}
			in, err := parseInput(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Inputs = append(cur.Inputs, in)
		case "output":
			if cur == nil {
				return nil, fail("output outside function block")
			}
			out, err := parseOutput(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Outputs = append(cur.Outputs, out)
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dsl: %w", err)
	}
	if w == nil {
		return nil, fmt.Errorf("dsl: no workflow declaration")
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("dsl: invalid workflow: %w", err)
	}
	return w, nil
}

// ParseDSLString is ParseDSL over a string.
func ParseDSLString(s string) (*Workflow, error) {
	return ParseDSL(strings.NewReader(s))
}

// parseInput parses `<name> [type K] [from $USER]`.
func parseInput(fields []string) (Input, error) {
	if len(fields) == 0 {
		return Input{}, fmt.Errorf("input: missing name")
	}
	in := Input{Name: fields[0]}
	rest := fields[1:]
	for len(rest) > 0 {
		switch rest[0] {
		case "type":
			if len(rest) < 2 {
				return Input{}, fmt.Errorf("input %s: type requires a value", in.Name)
			}
			k, err := ParseEdgeKind(rest[1])
			if err != nil {
				return Input{}, err
			}
			in.Kind = k
			rest = rest[2:]
		case "from":
			if len(rest) < 2 || rest[1] != UserSource {
				return Input{}, fmt.Errorf("input %s: only `from %s` is supported", in.Name, UserSource)
			}
			in.FromUser = true
			rest = rest[2:]
		default:
			return Input{}, fmt.Errorf("input %s: unexpected token %q", in.Name, rest[0])
		}
	}
	return in, nil
}

// parseOutput parses `<name> [type K] to <dest>[, <dest>…]`.
func parseOutput(fields []string) (Output, error) {
	if len(fields) == 0 {
		return Output{}, fmt.Errorf("output: missing name")
	}
	out := Output{Name: fields[0]}
	rest := fields[1:]
	for len(rest) > 0 {
		switch rest[0] {
		case "type":
			if len(rest) < 2 {
				return Output{}, fmt.Errorf("output %s: type requires a value", out.Name)
			}
			k, err := ParseEdgeKind(rest[1])
			if err != nil {
				return Output{}, err
			}
			out.Kind = k
			rest = rest[2:]
		case "to":
			// Everything after `to` is a comma-separated destination list,
			// possibly with spaces around commas.
			destStr := strings.Join(rest[1:], " ")
			for _, part := range strings.Split(destStr, ",") {
				part = strings.TrimSpace(part)
				if part == "" {
					continue
				}
				d, err := parseDest(part)
				if err != nil {
					return Output{}, fmt.Errorf("output %s: %v", out.Name, err)
				}
				out.Dests = append(out.Dests, d)
			}
			rest = nil
		default:
			return Output{}, fmt.Errorf("output %s: unexpected token %q", out.Name, rest[0])
		}
	}
	if len(out.Dests) == 0 {
		return Output{}, fmt.Errorf("output %s: missing `to <dest>`", out.Name)
	}
	return out, nil
}

// parseDest parses `function.input` or `$USER`.
func parseDest(s string) (Dest, error) {
	if s == UserSource {
		return Dest{Function: UserSource}, nil
	}
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return Dest{}, fmt.Errorf("bad destination %q (want function.input or %s)", s, UserSource)
	}
	return Dest{Function: s[:i], Input: s[i+1:]}, nil
}

// FormatDSL renders the workflow back into DSL text (round-trippable with
// ParseDSL for valid workflows).
//
//repolint:testseam the DSL round-trip property tests use it as the parser's reference
func FormatDSL(w *Workflow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %s\n", w.Name)
	for _, f := range w.Functions {
		fmt.Fprintf(&b, "\nfunction %s\n", f.Name)
		for _, in := range f.Inputs {
			fmt.Fprintf(&b, "  input %s", in.Name)
			if in.Kind != Normal {
				fmt.Fprintf(&b, " type %s", in.Kind)
			}
			if in.FromUser {
				fmt.Fprintf(&b, " from %s", UserSource)
			}
			b.WriteByte('\n')
		}
		for _, o := range f.Outputs {
			fmt.Fprintf(&b, "  output %s", o.Name)
			if o.Kind != Normal {
				fmt.Fprintf(&b, " type %s", o.Kind)
			}
			b.WriteString(" to ")
			for i, d := range o.Dests {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(d.String())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
