package main

import (
	"selfstabsnap/internal/history"
	"selfstabsnap/internal/types"
)

// epochHist is the checked history of one epoch: the stretch between two
// transient faults (or between set-up and the first fault). Each epoch
// begins with one recorded write per node — the warm-up writes of set-up,
// or the baseline writes after a recovery. A recovered node's timestamps
// continue from arbitrary corrupted values, so the history numbers each
// node's writes 1, 2, 3, … from that first write, and offsets maps the
// algorithm's timestamps to those indices.
type epochHist struct {
	offsets []int64 // per node: algorithm ts of its write with index 1, minus 1
	writes  []*history.Op
}

func writeOp(r opRec) *history.Op {
	return &history.Op{
		Node: r.node, Kind: history.KindWrite, Invoke: r.invoke, Return: r.ret,
		// A write that erred is recorded as pending: it may or may not
		// have taken effect.
		Returned:   r.err == nil,
		WriteIndex: r.index, WriteValue: r.val,
	}
}

// toIndices rewrites a returned vector's timestamps as write indices. An
// entry older than a node's write with index 1 maps to an index ≤ 0,
// which the checker rejects.
func (e *epochHist) toIndices(v types.RegVector) types.RegVector {
	out := make(types.RegVector, len(v))
	for k, x := range v {
		out[k] = types.TSValue{TS: x.TS - e.offsets[k], Val: x.Val}
	}
	return out
}

// checkSegment runs history.CheckOps over one segment: the writes carried
// from earlier segments plus every operation of this one. It then rebases
// the history so the next segment starts from each node's last returned
// write, renumbered 1 (and any pending writes after it). wcount holds the
// clients' per-node write counters, which are renumbered with it.
//
// CheckOps is quadratic, so the gate checks segment by segment. That is
// equivalent to one check over the whole epoch, because every operation
// of an earlier segment returned before any operation of a later one was
// invoked. Let L be each node's last returned write before the segment:
//   - a later snapshot must show at least L (rule 4), which the carried
//     writes enforce: an older entry maps to an index ≤ 0 (rule 1);
//   - every earlier snapshot showed at most L, since rule 1 bounded it by
//     the writes issued before it; so earlier ⪯ L ⪯ later, which is rules
//     2 and 3 across segments;
//   - an earlier write returned before a later snapshot was invoked and
//     its index is at most L's, so showing L satisfies rule 4 for it.
//
// It returns the number of operations in the segment.
func (e *epochHist) checkSegment(seg [2][]opRec, wcount []int64) (int, error) {
	ops := make([]*history.Op, 0, len(e.writes)+len(seg[0])+len(seg[1]))
	ops = append(ops, e.writes...)
	added := 0
	for _, cl := range seg {
		for _, r := range cl {
			added++
			switch {
			case r.kind == history.KindWrite:
				w := writeOp(r)
				e.writes = append(e.writes, w)
				ops = append(ops, w)
			case r.err == nil:
				ops = append(ops, &history.Op{
					Node: r.node, Kind: history.KindSnapshot, Invoke: r.invoke, Return: r.ret,
					Returned: true, Snapshot: e.toIndices(r.snap),
				})
			}
		}
	}
	if v := history.CheckOps(ops); v != nil {
		return added, v
	}
	e.rebase(wcount)
	return added, nil
}

// rebase keeps, per node, the last returned write and the pending writes
// after it, renumbered from 1.
func (e *epochHist) rebase(wcount []int64) {
	last := make([]int64, len(e.offsets))
	for _, w := range e.writes {
		if w.Returned && w.WriteIndex > last[w.Node] {
			last[w.Node] = w.WriteIndex
		}
	}
	kept := e.writes[:0]
	for _, w := range e.writes {
		if w.WriteIndex >= last[w.Node] {
			c := *w
			c.WriteIndex -= last[w.Node] - 1
			kept = append(kept, &c)
		}
	}
	clear(e.writes[len(kept):])
	e.writes = kept
	for k, l := range last {
		e.offsets[k] += l - 1
		wcount[k] -= l - 1
	}
}
