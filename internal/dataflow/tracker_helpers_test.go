package dataflow

import "sort"

// Test conveniences over the by-name API (Route, DeliverInto).

// emit routes the values produced on one output of one instance and
// delivers them immediately (RouteAppend followed by deliverAll). For a
// FOREACH output, values carries one Value per fan-out element; for every
// other kind it carries exactly one Value. switchCase selects the
// destination for SWITCH outputs (ignored otherwise). It returns the routed
// items (including user deliveries) and the instances that became ready.
func (t *Tracker) emit(from InstanceKey, output string, values []Value, switchCase int) ([]Item, []InstanceKey, error) {
	items, err := t.RouteAppend(nil, from, output, values, switchCase)
	if err != nil {
		return nil, nil, err
	}
	newly, err := t.deliverAll(items)
	if err != nil {
		return nil, nil, err
	}
	return items, newly, nil
}

// deliverAll delivers a batch of items and returns the instances that
// became ready, sorted by function name then index.
func (t *Tracker) deliverAll(items []Item) ([]InstanceKey, error) {
	var newly []InstanceKey
	for _, it := range items {
		var err error
		if newly, err = t.DeliverInto(newly, it); err != nil {
			return nil, err
		}
	}
	sort.Slice(newly, func(i, j int) bool {
		if newly[i].Fn != newly[j].Fn {
			return newly[i].Fn < newly[j].Fn
		}
		return newly[i].Idx < newly[j].Idx
	})
	return newly, nil
}

// isReadyKey reports whether the instance has become ready: it has inputs,
// and none is missing.
func (t *Tracker) isReadyKey(key InstanceKey) bool {
	f, ok := t.wf.Function(key.Fn)
	if !ok {
		return false
	}
	fr := &t.fns[f.Index()]
	return key.Idx >= 0 && key.Idx < int(fr.n) && fr.ins > 0 && t.miss[int(fr.miss)+key.Idx] == 0
}

// instances returns every instance key with known fan-out, in deterministic
// order. Instances of functions with unknown fan-out are omitted.
func (t *Tracker) instances() []InstanceKey {
	var out []InstanceKey
	for i, f := range t.wf.Functions {
		for idx := 0; idx < int(t.fns[i].n); idx++ {
			out = append(out, InstanceKey{Fn: f.Name, Idx: idx})
		}
	}
	return out
}
