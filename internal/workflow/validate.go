package workflow

import (
	"errors"
	"fmt"
)

// Validate checks the structural integrity of the workflow:
//
//   - at least one function, one entry and one terminal;
//   - every destination references an existing function and input;
//   - Foreach/Merge outputs target List inputs, Normal outputs target
//     Normal inputs;
//   - Switch outputs have at least two destinations;
//   - a FOREACH-fanned function's outputs are each a MERGE into LIST
//     inputs or a NORMAL to the user: its instances share one record per
//     output, which can count neither a per-instance SWITCH case or FOREACH
//     degree nor several values landing in one NORMAL input;
//   - every non-entry input is fed by at least one output, and no Normal
//     input is fed by more than one output;
//   - the graph is acyclic and every function is reachable from an entry.
//
// All problems found are joined into a single error.
func (w *Workflow) Validate() error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	ix := w.reindex()
	if len(w.Functions) == 0 {
		add("workflow %s: no functions", w.Name)
		return errors.Join(errs...)
	}
	if len(w.Entries()) == 0 {
		add("workflow %s: no entry function (no input with FromUser)", w.Name)
	}
	if len(w.Terminals()) == 0 {
		add("workflow %s: no terminal function (no output to %s)", w.Name, UserSource)
	}

	// Track feeders of every (function, input).
	type slot struct{ fn, in string }
	feeders := map[slot]int{}
	fanned := map[string]bool{}
	for _, f := range w.Functions {
		for _, o := range f.Outputs {
			for _, d := range o.Dests {
				fanned[d.Function] = fanned[d.Function] || o.Kind == Foreach
			}
		}
	}

	for _, f := range w.Functions {
		if len(f.Outputs) == 0 {
			add("function %s: no outputs (the DLU must be called at least once; terminal functions must emit an end signal to %s)", f.Name, UserSource)
		}
		seenIn := map[string]bool{}
		for _, in := range f.Inputs {
			if in.Name == "" {
				add("function %s: input with empty name", f.Name)
			}
			if seenIn[in.Name] {
				add("function %s: duplicate input %q", f.Name, in.Name)
			}
			seenIn[in.Name] = true
			if in.Kind != Normal && in.Kind != List {
				add("function %s input %s: kind must be NORMAL or LIST, got %s", f.Name, in.Name, in.Kind)
			}
		}
		seenOut := map[string]bool{}
		for _, o := range f.Outputs {
			if o.Name == "" {
				add("function %s: output with empty name", f.Name)
			}
			if seenOut[o.Name] {
				add("function %s: duplicate output %q", f.Name, o.Name)
			}
			seenOut[o.Name] = true
			if len(o.Dests) == 0 {
				add("function %s output %s: no destinations", f.Name, o.Name)
			}
			if o.Kind == Switch && len(o.Dests) < 2 {
				add("function %s output %s: SWITCH needs >= 2 destinations", f.Name, o.Name)
			}
			if o.Kind == List {
				add("function %s output %s: LIST is an input-side kind", f.Name, o.Name)
			}
			if fanned[f.Name] && !fannedOutputOK(o) {
				add("function %s output %s: a FOREACH-fanned function may only MERGE into a LIST or send NORMAL to %s, got %s",
					f.Name, o.Name, UserSource, o.Kind)
			}
			for _, d := range o.Dests {
				if d.Function == UserSource {
					continue
				}
				dst, ok := ix.byName[d.Function]
				if !ok {
					add("function %s output %s: unknown destination function %q", f.Name, o.Name, d.Function)
					continue
				}
				in, ok := dst.Input(d.Input)
				if !ok {
					add("function %s output %s: destination %s has no input %q", f.Name, o.Name, d.Function, d.Input)
					continue
				}
				feeders[slot{d.Function, d.Input}]++
				switch o.Kind {
				case Foreach, Merge:
					if in.Kind != List && o.Kind == Merge {
						add("function %s output %s: MERGE must feed a LIST input, %s.%s is %s",
							f.Name, o.Name, d.Function, d.Input, in.Kind)
					}
				case Normal, Switch:
					if in.Kind == List {
						add("function %s output %s: %s output feeds LIST input %s.%s (use MERGE)",
							f.Name, o.Name, o.Kind, d.Function, d.Input)
					}
				}
				if in.FromUser {
					add("function %s output %s: destination %s.%s is a user entry input",
						f.Name, o.Name, d.Function, d.Input)
				}
			}
		}
	}

	// Every non-entry input must be fed; Normal inputs by exactly one output.
	for _, f := range w.Functions {
		for _, in := range f.Inputs {
			if in.FromUser {
				continue
			}
			n := feeders[slot{f.Name, in.Name}]
			if n == 0 {
				add("function %s input %s: not fed by any output", f.Name, in.Name)
			}
			if in.Kind == Normal && n > 1 {
				add("function %s input %s: NORMAL input fed by %d outputs", f.Name, in.Name, n)
			}
		}
	}

	// Acyclicity.
	if _, err := w.TopoOrder(); err != nil {
		errs = append(errs, err)
	} else {
		// Reachability from entries (only meaningful on a DAG).
		reach := map[string]bool{}
		var stack []string
		for _, f := range w.Entries() {
			stack = append(stack, f.Name)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[n] {
				continue
			}
			reach[n] = true
			stack = append(stack, w.Successors(n)...)
		}
		for _, f := range w.Functions {
			if !reach[f.Name] {
				add("function %s: unreachable from any entry", f.Name)
			}
		}
	}
	return errors.Join(errs...)
}

// fannedOutputOK reports whether a FOREACH-fanned function may declare o:
// a MERGE with no user destination, or a NORMAL to the user alone.
func fannedOutputOK(o Output) bool {
	if o.Kind != Merge && o.Kind != Normal {
		return false
	}
	for _, d := range o.Dests {
		if (d.Function == UserSource) != (o.Kind == Normal) {
			return false
		}
	}
	return true
}
