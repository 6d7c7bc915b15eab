package dataflow

import "sort"

// Test conveniences over the engine-facing API (RouteAppend, DeliverInto).

// emit routes the values produced on one output of one instance and
// delivers them immediately (Route followed by deliverAll). For a
// FOREACH output, values carries one Value per fan-out element; for every
// other kind it carries exactly one Value. switchCase selects the
// destination for SWITCH outputs (ignored otherwise). It returns the routed
// items (including user deliveries) and the instances that became ready.
func (t *Tracker) emit(from InstanceKey, output string, values []Value, switchCase int) ([]Item, []InstanceKey, error) {
	items, err := t.Route(from, output, values, switchCase)
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
	// Single-item fast path: network engines deliver item by item as bytes
	// land, so the touched-set bookkeeping and the cross-function sort
	// reduce to one delivery (whose keys are already in index order).
	if len(items) == 1 {
		return t.DeliverInto(nil, items[0])
	}
	touched := map[*fnTrack]bool{}
	for i := range items {
		ft, err := t.record(&items[i])
		if err != nil {
			return nil, err
		}
		if ft != nil {
			touched[ft] = true
		}
	}
	var newly []InstanceKey
	for ft := range touched {
		newly = t.checkReady(newly, ft)
	}
	sort.Slice(newly, func(i, j int) bool {
		if newly[i].Fn != newly[j].Fn {
			return newly[i].Fn < newly[j].Fn
		}
		return newly[i].Idx < newly[j].Idx
	})
	return newly, nil
}

// isReadyKey reports whether the instance has become ready.
func (t *Tracker) isReadyKey(key InstanceKey) bool {
	ft := t.track(key.Fn)
	return ft != nil && key.Idx >= 0 && ft.isReady(key.Idx)
}

// instances returns every instance key with known fan-out, in deterministic
// order. Instances of functions with unknown fan-out are omitted.
func (t *Tracker) instances() []InstanceKey {
	var out []InstanceKey
	for i, f := range t.wf.Functions {
		st := t.fns[i].fanout
		if !st.known {
			continue
		}
		for idx := 0; idx < st.n; idx++ {
			out = append(out, InstanceKey{Fn: f.Name, Idx: idx})
		}
	}
	return out
}
